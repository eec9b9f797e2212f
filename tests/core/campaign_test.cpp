// Campaign orchestration units on a one-shard engine: phase structure,
// ledger bookkeeping, screening toggles, measurement toggles, mitigation
// plumbing.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/campaign_engine.h"
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

/// Standard deployment with two-prober fleets (see shadow::standard_exhibitors
/// for `frozen`).
CampaignEngine::Decorator exhibitors(const shadow::ShadowDeployment** frozen = nullptr) {
  shadow::ShadowConfig shadow_config;
  shadow_config.fleet_size = 2;
  return shadow::standard_exhibitors(shadow_config, frozen);
}

TEST(CampaignTest, Phase1CoversEveryUsableVpTimesEveryDestination) {
  CampaignEngine engine(small_config(), fast_campaign(), 1);
  CampaignResult campaign = engine.run();
  std::size_t vps = campaign.active_vps.size();
  std::size_t dns_targets = engine.primary().topology().dns_target_hosts().size();
  std::size_t sites = engine.primary().topology().web_sites().size();
  // Path table: one DNS path per (VP, DNS target), one HTTP and one TLS
  // path per (VP, site).
  EXPECT_EQ(campaign.ledger.paths().size(), vps * (dns_targets + 2 * sites));
  // Phase I emits exactly one decoy per path (no exhibitors -> no phase II).
  std::size_t phase1 = 0;
  for (const auto& decoy : campaign.ledger.decoys()) {
    if (!decoy.phase2) ++phase1;
  }
  EXPECT_EQ(phase1, campaign.ledger.paths().size());
}

TEST(CampaignTest, DecoysReachDestinationsAndComeBack) {
  CampaignEngine engine(small_config(), fast_campaign(), 1);
  CampaignResult campaign = engine.run();
  std::size_t responded = 0;
  std::size_t total = 0;
  for (const auto& decoy : campaign.ledger.decoys()) {
    if (decoy.phase2) continue;
    ++total;
    const PathRecord& path = campaign.ledger.path(decoy.path_id);
    // Root/TLD referrals, resolver answers, HTTP responses, TLS greetings:
    // everything answers something.
    if (path.dest_kind != DestKind::kWebSite || path.protocol != DecoyProtocol::kTls) {
      if (decoy.dest_responded) ++responded;
    } else if (decoy.dest_responded) {
      ++responded;
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(responded) / static_cast<double>(total), 0.97);
}

TEST(CampaignTest, NoExhibitorsMeansNoUnsolicitedBeyondQuirks) {
  TestbedConfig config = small_config();
  config.resolver_requery_probability = 0.0;  // clean resolvers
  CampaignEngine engine(config, fast_campaign(), 1);
  CampaignResult campaign = engine.run();
  EXPECT_EQ(campaign.unsolicited.size(), 0u);
  EXPECT_TRUE(campaign.findings.empty());
}

TEST(CampaignTest, Phase2SweepsOnlyProblematicPaths) {
  CampaignConfig config = fast_campaign();
  config.max_sweep_ttl = 12;
  CampaignEngine engine(small_config(), config, 1, exhibitors());
  CampaignResult campaign = engine.run();
  std::set<std::uint32_t> swept;
  for (const auto& decoy : campaign.ledger.decoys()) {
    if (decoy.phase2) swept.insert(decoy.path_id);
  }
  ASSERT_FALSE(swept.empty());
  EXPECT_LT(swept.size(), campaign.ledger.paths().size());
  // Each swept path received exactly max_sweep_ttl variants.
  std::map<std::uint32_t, int> per_path;
  for (const auto& decoy : campaign.ledger.decoys()) {
    if (decoy.phase2) ++per_path[decoy.path_id];
  }
  for (const auto& [path, count] : per_path) EXPECT_EQ(count, 12);
}

TEST(CampaignTest, MeasurementTogglesPruneProtocols) {
  CampaignConfig config = fast_campaign();
  config.measure_http = false;
  config.measure_tls = false;
  CampaignEngine engine(small_config(), config, 1);
  CampaignResult campaign = engine.run();
  for (const auto& path : campaign.ledger.paths()) {
    EXPECT_EQ(path.protocol, DecoyProtocol::kDns);
  }
}

TEST(CampaignTest, ScreeningOffKeepsEveryCandidate) {
  CampaignConfig config = fast_campaign();
  config.screening = false;
  CampaignEngine engine(small_config(), config, 1);
  CampaignResult campaign = engine.run();
  EXPECT_EQ(campaign.active_vps.size(),
            engine.primary().topology().vantage_points().size());
}

TEST(CampaignTest, EmissionTimesRespectTheWindow) {
  CampaignConfig config = fast_campaign();
  CampaignEngine engine(small_config(), config, 1);
  CampaignResult campaign = engine.run();
  SimTime screening_end = kHour;  // screening occupies the first hour
  for (const auto& decoy : campaign.ledger.decoys()) {
    if (decoy.phase2) continue;
    EXPECT_GE(decoy.sent, screening_end);
    EXPECT_LE(decoy.sent, screening_end + config.phase1_window);
  }
}

TEST(CampaignTest, MitigationFlagsReachTheAgents) {
  // DoT campaign: on-wire DNS wiretaps see nothing, resolvers still answer.
  CampaignConfig config = fast_campaign();
  config.dns_transport = DnsDecoyTransport::kEncrypted;
  const shadow::ShadowDeployment* deployment = nullptr;
  CampaignEngine engine(small_config(), config, 1, exhibitors(&deployment));
  CampaignResult campaign = engine.run();
  ASSERT_NE(deployment, nullptr);
  const auto* misc = deployment->find("wire:dns-misc");
  ASSERT_NE(misc, nullptr);
  // No *decoy* name is visible on the wire (screening pair probes stay
  // plaintext by design, so the tap may still harvest those).
  std::set<net::DnsName> decoy_domains;
  for (const auto& decoy : campaign.ledger.decoys()) decoy_domains.insert(decoy.domain);
  for (std::size_t i = 0; i < misc->exhibitor->store().size(); ++i) {
    EXPECT_EQ(decoy_domains.count(misc->exhibitor->store().at(i).domain), 0u);
  }
  // Destination shadowing persists.
  auto ratios = path_ratios(campaign.ledger, campaign.unsolicited);
  EXPECT_GT(ratios.total(DecoyProtocol::kDns, "Yandex").ratio(), 0.8);
}

}  // namespace
}  // namespace shadowprobe::core

namespace shadowprobe::core {
namespace {

TEST(CampaignTest, MultipleRoundsEmitFreshDecoysPerPath) {
  CampaignConfig config = fast_campaign();
  config.phase1_rounds = 3;
  config.phase2_grace = config.phase1_window * 3 + 2 * kHour;
  CampaignEngine engine(small_config(), config, 1);
  CampaignResult campaign = engine.run();
  std::map<std::uint32_t, int> per_path;
  std::set<net::DnsName> domains;
  for (const auto& decoy : campaign.ledger.decoys()) {
    if (decoy.phase2) continue;
    ++per_path[decoy.path_id];
    EXPECT_TRUE(domains.insert(decoy.domain).second) << "duplicate decoy domain";
  }
  for (const auto& [path, count] : per_path) EXPECT_EQ(count, 3);
}

TEST(CampaignTest, RoundsDoNotInflateUnsolicitedOnCleanPaths) {
  TestbedConfig config = small_config();
  config.resolver_requery_probability = 0.0;
  CampaignConfig campaign_config = fast_campaign();
  campaign_config.phase1_rounds = 2;
  CampaignEngine engine(config, campaign_config, 1);
  CampaignResult campaign = engine.run();
  // Each round's decoy resolves once (solicited); criterion (iii) tracks
  // per-decoy, so repeated rounds stay clean.
  EXPECT_EQ(campaign.unsolicited.size(), 0u);
}

}  // namespace
}  // namespace shadowprobe::core
