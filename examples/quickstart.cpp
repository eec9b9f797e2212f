// Quickstart: build a small synthetic Internet, deploy the ground-truth
// shadowing exhibitors, run the two-phase measurement campaign, and print
// what the pipeline discovered.
//
//   $ ./examples/quickstart            # ~20s at the default scale
//   $ SHADOWPROBE_SCALE=0.25 ./examples/quickstart   # smaller & faster

#include <cstdio>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/report.h"
#include "shadow/profiles.h"

using namespace shadowprobe;

int main() {
  // 1. The substrate: topology, resolvers, honeypots, web farm.
  core::TestbedConfig testbed_config;
  testbed_config.topology = topo::TopologyConfig::from_env();
  testbed_config.topology.apply_scale(0.5);  // quickstart runs small

  // 2. The ground truth: who is shadowing, and where. The engine installs
  //    it on the testbed it builds.
  const shadow::ShadowDeployment* truth = nullptr;

  // 3. The measurement: screening, Phase I decoys, Phase II traceroute.
  core::CampaignConfig campaign_config;
  campaign_config.total_duration = 20 * kDay;
  core::CampaignEngine engine(testbed_config, campaign_config, /*shard_count=*/1,
                              shadow::standard_exhibitors({}, &truth));
  core::Testbed& bed = engine.primary();
  std::printf("substrate: %zu nodes, %zu VPs, %zu DNS targets, %zu web sites\n",
              bed.net().node_count(), bed.topology().vantage_points().size(),
              bed.topology().dns_target_hosts().size(), bed.topology().web_sites().size());
  std::printf("ground truth: %zu exhibitors deployed (hidden from the pipeline)\n\n",
              truth->exhibitors.size());
  core::CampaignResult campaign = engine.run();

  const auto& screening = campaign.screening;
  std::printf("screening: %d candidate VPs -> %d usable "
              "(%d residential, %d TTL-mangling, %d intercepted removed)\n",
              screening.candidates, screening.usable, screening.rejected_residential,
              screening.rejected_ttl_mangling, screening.rejected_interception);
  std::printf("decoys sent: %zu   honeypot hits: %zu   unsolicited requests: %zu\n\n",
              campaign.ledger.decoy_count(), campaign.hits.size(),
              campaign.unsolicited.size());

  // 4. What the pipeline found.
  auto ratios = core::path_ratios(campaign.ledger, campaign.unsolicited);
  auto top = core::top_shadowed_resolvers(ratios, 5);
  std::printf("most-shadowed DNS destinations (Resolver_h):\n");
  core::TextTable table({"resolver", "problematic paths", "ratio"});
  for (const auto& name : top) {
    auto cell = ratios.total(core::DecoyProtocol::kDns, name);
    table.add_row({name, std::to_string(cell.problematic) + "/" + std::to_string(cell.paths),
                   core::percent(cell.ratio())});
  }
  std::printf("%s\n", table.str().c_str());

  auto locations = core::observer_locations(campaign.findings);
  std::printf("observer location (normalized hop, 10 = destination):\n");
  for (const auto& [protocol, shares] : locations.shares) {
    std::printf("  %-4s:", core::decoy_protocol_name(protocol).c_str());
    for (int hop = 1; hop <= 10; ++hop) {
      std::printf(" %5.1f%%", shares.at(hop) * 100.0);
    }
    std::printf("\n");
  }
  std::printf("\ndone. see bench/ for the full per-table reproductions.\n");
  return 0;
}
