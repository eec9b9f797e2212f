// Sharded campaign engine: shard-count invariance, partitioning, merging.
#include "core/campaign_engine.h"

#include <gtest/gtest.h>

#include "core/json_export.h"
#include "shadow/profiles.h"

namespace shadowprobe::core {
namespace {

TestbedConfig small_config(std::uint64_t seed = 61) {
  TestbedConfig config;
  config.topology.seed = seed;
  config.topology.global_vps = 6;
  config.topology.cn_vps = 6;
  config.topology.web_sites = 4;
  return config;
}

CampaignConfig fast_campaign() {
  CampaignConfig config;
  config.phase1_window = 2 * kHour;
  config.phase2_grace = 4 * kHour;
  config.phase2_window = 2 * kHour;
  config.total_duration = 3 * kDay;
  return config;
}

CampaignEngine::Decorator standard_exhibitors() {
  return [](Testbed& replica) -> std::shared_ptr<void> {
    shadow::ShadowConfig shadow_config;
    shadow_config.fleet_size = 2;
    return std::make_shared<shadow::ShadowDeployment>(
        shadow::deploy_standard_exhibitors(replica, shadow_config));
  };
}

std::string run_and_export(int shards, std::uint64_t seed = 61) {
  CampaignEngine engine(small_config(seed), fast_campaign(), shards,
                        standard_exhibitors());
  CampaignResult result = engine.run();
  return export_campaign_json(engine.primary(), result);
}

TEST(CampaignEngineTest, ExportedJsonIsByteIdenticalForAnyShardCount) {
  std::string one = run_and_export(1);
  std::string two = run_and_export(2);
  std::string four = run_and_export(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(CampaignEngineTest, DifferentSeedsProduceDifferentResults) {
  // Guard against the invariance test passing vacuously (e.g. everything
  // collapsing to an empty result).
  EXPECT_NE(run_and_export(2, 61), run_and_export(2, 62));
}

TEST(CampaignEngineTest, ShardCountIsClamped) {
  CampaignEngine engine(small_config(), fast_campaign(), 0);
  EXPECT_EQ(engine.shard_count(), 1);
}

TEST(CampaignEngineTest, ClampedShardCountIsRecordedInResult) {
  CampaignEngine engine(small_config(), fast_campaign(), 0, standard_exhibitors());
  CampaignResult result = engine.run();
  EXPECT_EQ(result.shard_stats.requested_shards, 0);
  EXPECT_EQ(result.shard_stats.effective_shards, 1);
  EXPECT_TRUE(result.shard_stats.clamped);
  EXPECT_EQ(result.shard_stats.per_shard.size(), 1u);
}

TEST(CampaignEngineTest, InRangeShardCountIsNotFlaggedAsClamped) {
  CampaignEngine engine(small_config(), fast_campaign(), 2, standard_exhibitors());
  CampaignResult result = engine.run();
  EXPECT_EQ(result.shard_stats.requested_shards, 2);
  EXPECT_EQ(result.shard_stats.effective_shards, 2);
  EXPECT_FALSE(result.shard_stats.clamped);
}

TEST(CampaignEngineTest, MergedLedgerMatchesSerialPathTable) {
  CampaignEngine engine(small_config(), fast_campaign(), 3);
  CampaignResult result = engine.run();
  Testbed& bed = engine.primary();
  std::size_t vps = result.active_vps.size();
  std::size_t dns_targets = bed.topology().dns_target_hosts().size();
  std::size_t sites = bed.topology().web_sites().size();
  // One DNS path per (VP, DNS target), one HTTP and one TLS path per
  // (VP, site) — no duplicates from the per-shard replicas.
  EXPECT_EQ(result.ledger.paths().size(), vps * (dns_targets + 2 * sites));
  std::size_t phase1 = 0;
  for (const auto& decoy : result.ledger.decoys()) {
    if (!decoy.phase2) ++phase1;
  }
  EXPECT_EQ(phase1, result.ledger.paths().size());
  // Every path's VP pointer is rebound into the primary replica's storage.
  const auto& storage = bed.topology().vantage_points();
  for (const auto& path : result.ledger.paths()) {
    ASSERT_NE(path.vp, nullptr);
    EXPECT_GE(path.vp, storage.data());
    EXPECT_LT(path.vp, storage.data() + storage.size());
  }
  // Per-shard loop statistics came back from every worker.
  EXPECT_EQ(result.shard_stats.per_shard.size(), 3u);
  for (const auto& stats : result.shard_stats.per_shard) EXPECT_GT(stats.processed, 0u);
}

}  // namespace
}  // namespace shadowprobe::core
