// Figure 4: cumulative distribution of the time between an initial DNS
// decoy (to Resolver_h) and the unsolicited requests bearing its data.
//
// Paper shapes: a sizable cluster within one minute (benign DNS-DNS
// re-queries), a long tail out to days; no spike at the record TTL (3600s)
// or other hourly marks; all unsolicited HTTP(S) arrive at least 1h later.
#include <cstdio>

#include "common/strutil.h"
#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Figure 4: DNS decoy -> request time CDF");

  auto resolver_h = world.resolver_h();
  auto cdfs = core::interval_cdf_by_resolver(world.result.ledger,
                                             world.result.unsolicited, resolver_h);

  const std::vector<std::pair<const char*, double>> kPoints = {
      {"1s", 1},          {"1min", 60},        {"10min", 600},
      {"1h", 3600},       {"1h+TTL", 7200},    {"1d", 86400},
      {"3d", 3 * 86400.0}, {"10d", 10 * 86400.0}, {"20d", 20 * 86400.0},
  };
  core::TextTable table({"resolver", "1s", "1min", "10min", "1h", "1h+TTL", "1d", "3d",
                         "10d", "20d", "n"});
  for (const auto& name : resolver_h) {
    auto it = cdfs.find(name);
    if (it == cdfs.end()) continue;
    std::vector<std::string> row = {name};
    for (const auto& [label, seconds] : kPoints) {
      row.push_back(strprintf("%.2f", it->second.at(seconds)));
    }
    row.push_back(std::to_string(it->second.count()));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());

  if (cdfs.count("Yandex")) {
    const Cdf& yandex = cdfs.at("Yandex");
    bench::paper_line("Yandex requests arriving after 1 day", "large share",
                      core::percent(1.0 - yandex.at(86400.0)));
    // No TTL-aligned spike: the CDF mass between 55-65 min should not jump.
    double around_ttl = yandex.at(65 * 60.0) - yandex.at(55 * 60.0);
    bench::paper_line("mass in the 55-65min window (TTL=3600 spike?)", "no spike",
                      core::percent(around_ttl));
  }
  // Unsolicited HTTP(S) triggered by DNS decoys arrive at least 1h later.
  SimDuration earliest_web = 0;
  bool have_web = false;
  for (const auto& request : world.result.unsolicited) {
    if (request.decoy_protocol != core::DecoyProtocol::kDns) continue;
    if (request.request_protocol == core::RequestProtocol::kDns) continue;
    if (!have_web || request.interval < earliest_web) {
      earliest_web = request.interval;
      have_web = true;
    }
  }
  bench::paper_line("earliest unsolicited HTTP(S) after a DNS decoy", ">= 1h",
                    have_web ? format_duration(earliest_web) : "none");

  // The other 15 resolvers: nearly all requests inside a minute.
  Cdf others;
  std::set<std::string> top(resolver_h.begin(), resolver_h.end());
  for (const auto& request : world.result.unsolicited) {
    const auto& path = world.result.ledger.path(request.path_id);
    if (path.protocol != core::DecoyProtocol::kDns) continue;
    if (path.dest_kind != core::DestKind::kPublicResolver) continue;
    if (top.count(path.dest_name) > 0) continue;
    others.add(to_seconds(request.interval));
  }
  if (!others.empty()) {
    bench::paper_line("non-Resolver_h requests within 1 minute", "95%",
                      core::percent(others.at(60.0)));
  }
  return 0;
}
