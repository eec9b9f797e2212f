#include "harness.h"

#include <cstdio>
#include <string>

namespace shadowprobe::bench {

BenchWorld run_standard_campaign(const std::string& bench_name) {
  BenchWorld world;
  world.config.topology = topo::TopologyConfig::from_env();
  const topo::TopologyConfig& topology = world.config.topology;
  std::printf("== %s ==\n", bench_name.c_str());
  std::printf("substrate: %d global VPs + %d CN VPs, %d web sites, seed %llu\n",
              topology.global_vps, topology.cn_vps, topology.web_sites,
              static_cast<unsigned long long>(topology.seed));

  core::CampaignConfig campaign_config;
  campaign_config.total_duration = 25 * kDay;
  world.engine = std::make_unique<core::CampaignEngine>(
      world.config, campaign_config, /*shard_count=*/1, shadow::standard_exhibitors());
  world.result = world.engine->run();
  std::printf("campaign: %zu decoys, %zu honeypot hits, %zu unsolicited requests, "
              "%d usable VPs\n\n",
              world.result.ledger.decoy_count(), world.result.hits.size(),
              world.result.unsolicited.size(), world.result.screening.usable);
  return world;
}

void paper_line(const std::string& what, const std::string& paper,
                const std::string& measured) {
  std::printf("  %-52s paper: %-14s measured: %s\n", what.c_str(), paper.c_str(),
              measured.c_str());
}

}  // namespace shadowprobe::bench
