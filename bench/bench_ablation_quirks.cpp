// Ablation: benign resolver behaviours vs. true shadowing.
//
// The paper separates shadowing from two benign causes of repeated queries:
//   1. duplicate/verification re-queries (the <1 min DNS-DNS cluster) — it
//      keeps these in the data but attributes them to implementation choice;
//   2. active cache refresh at TTL expiry — it *rules this out* by checking
//      for spikes at the record TTL (3600 s) in Figure 4 and finding none.
//
// This bench runs the diagnosis both ways: with refresh disabled (default,
// like the real resolvers apparently behave) and enabled. With refresh on,
// the tell-tale TTL-aligned spike appears — demonstrating the paper's
// detection logic has teeth.
#include <cstdio>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/report.h"
#include "shadow/profiles.h"

using namespace shadowprobe;

namespace {

struct QuirkResult {
  double ttl_window_mass = 0.0;   // CDF mass in the 55-65 min window
  double under_minute = 0.0;      // mass below one minute
  std::size_t dns_dns_requests = 0;
};

QuirkResult run(bool refresh_on_expiry, double requery_probability) {
  core::TestbedConfig config;
  config.topology = topo::TopologyConfig::from_env();
  config.topology.apply_scale(0.5);
  config.resolver_refresh_on_expiry = refresh_on_expiry;
  config.resolver_requery_probability = requery_probability;
  core::CampaignConfig campaign_config;
  campaign_config.total_duration = 15 * kDay;
  core::CampaignEngine engine(config, campaign_config, /*shard_count=*/1,
                              shadow::standard_exhibitors());
  core::CampaignResult campaign = engine.run();

  QuirkResult result;
  Cdf intervals;
  for (const auto& request : campaign.unsolicited) {
    if (request.decoy_protocol != core::DecoyProtocol::kDns) continue;
    if (request.request_protocol != core::RequestProtocol::kDns) continue;
    intervals.add(to_seconds(request.interval));
    ++result.dns_dns_requests;
  }
  if (!intervals.empty()) {
    result.ttl_window_mass = intervals.at(65 * 60.0) - intervals.at(55 * 60.0);
    result.under_minute = intervals.at(60.0);
  }
  return result;
}

}  // namespace

int main() {
  std::printf("== Ablation: resolver quirks vs the Figure-4 diagnostics ==\n\n");

  QuirkResult baseline = run(false, 0.15);
  QuirkResult refresh = run(true, 0.15);
  QuirkResult no_requery = run(false, 0.0);

  core::TextTable table({"configuration", "DNS-DNS requests", "<1min mass",
                         "55-65min (TTL) mass"});
  auto row = [&](const char* name, const QuirkResult& r) {
    table.add_row({name, std::to_string(r.dns_dns_requests), core::percent(r.under_minute),
                   core::percent(r.ttl_window_mass)});
  };
  row("baseline (re-queries on, refresh off)", baseline);
  row("cache refresh at TTL expiry ON", refresh);
  row("no benign re-queries at all", no_requery);
  std::printf("%s\n", table.str().c_str());

  std::printf("reading:\n");
  std::printf("  - the paper saw no TTL-aligned spike and concluded refresh is not the\n");
  std::printf("    major cause; enabling refresh makes the 55-65min mass jump from %s\n",
              core::percent(baseline.ttl_window_mass).c_str());
  std::printf("    to %s — the diagnostic detects it.\n",
              core::percent(refresh.ttl_window_mass).c_str());
  std::printf("  - disabling re-queries removes the sub-minute cluster (%s -> %s),\n",
              core::percent(baseline.under_minute).c_str(),
              core::percent(no_requery.under_minute).c_str());
  std::printf("    leaving only true shadowing in the DNS-DNS mix.\n");
  return 0;
}
