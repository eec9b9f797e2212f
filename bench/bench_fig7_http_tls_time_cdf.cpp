// Figure 7: cumulative distribution of the time between HTTP/TLS decoys and
// the unsolicited requests bearing their data.
//
// Paper shapes: retention is shorter than for DNS decoys (fewer requests
// arrive after days) — on-wire routing devices have limited storage, while
// destination-side observers (most TLS ones) hold data longer.
#include <cstdio>

#include "common/strutil.h"
#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Figure 7: HTTP/TLS decoy -> request time CDF");

  auto by_protocol = core::interval_cdf_by_protocol(world.result.unsolicited);
  const std::vector<std::pair<const char*, double>> kPoints = {
      {"1min", 60},   {"10min", 600},      {"1h", 3600},         {"6h", 6 * 3600.0},
      {"1d", 86400},  {"3d", 3 * 86400.0}, {"10d", 10 * 86400.0},
  };
  core::TextTable table({"decoy", "1min", "10min", "1h", "6h", "1d", "3d", "10d", "n"});
  for (core::DecoyProtocol protocol : {core::DecoyProtocol::kHttp, core::DecoyProtocol::kTls}) {
    auto it = by_protocol.find(protocol);
    if (it == by_protocol.end()) continue;
    std::vector<std::string> row = {core::decoy_protocol_name(protocol)};
    for (const auto& [label, seconds] : kPoints) {
      row.push_back(strprintf("%.2f", it->second.at(seconds)));
    }
    row.push_back(std::to_string(it->second.count()));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());

  // Comparison against DNS-decoy retention (Figure 4 counterpart).
  Cdf dns;
  for (const auto& request : world.result.unsolicited) {
    if (request.decoy_protocol == core::DecoyProtocol::kDns) {
      dns.add(to_seconds(request.interval));
    }
  }
  auto after_day = [](const Cdf& cdf) { return 1.0 - cdf.at(86400.0); };
  if (by_protocol.count(core::DecoyProtocol::kHttp) && !dns.empty()) {
    bench::paper_line("HTTP-decoy requests later than 1 day",
                      "smaller than DNS",
                      core::percent(after_day(by_protocol.at(core::DecoyProtocol::kHttp))) +
                          " (DNS: " + core::percent(after_day(dns)) + ")");
  }
  if (by_protocol.count(core::DecoyProtocol::kTls) &&
      by_protocol.count(core::DecoyProtocol::kHttp)) {
    bench::paper_line("TLS-decoy tail vs HTTP (destination observers hold longer)",
                      "TLS > HTTP",
                      core::percent(after_day(by_protocol.at(core::DecoyProtocol::kTls))) +
                          " vs " +
                          core::percent(after_day(by_protocol.at(core::DecoyProtocol::kHttp))));
  }
  return 0;
}
