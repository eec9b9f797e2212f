// Post-barrier pipeline parallelism: the determinism contract says the
// classified requests, every analysis table, and the exported JSON are
// byte-identical for any analysis-worker count.
#include <gtest/gtest.h>

#include <memory>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/json_export.h"
#include "core/testbed.h"
#include "shadow/profiles.h"

namespace shadowprobe::core {
namespace {

TestbedConfig small_config() {
  TestbedConfig config;
  config.topology.seed = 71;
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

/// One campaign, run once; every test case re-analyzes its result.
class AnalysisParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    shadow::ShadowConfig shadow_config;
    shadow_config.fleet_size = 2;
    engine_ = new CampaignEngine(small_config(), fast_campaign(), 1,
                                 shadow::standard_exhibitors(shadow_config));
    bed_ = &engine_->primary();
    result_ = new CampaignResult(engine_->run());
  }

  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
    bed_ = nullptr;
    delete engine_;
    engine_ = nullptr;
  }

  static CampaignEngine* engine_;
  static Testbed* bed_;  ///< the engine's testbed
  static CampaignResult* result_;
};

CampaignEngine* AnalysisParallelTest::engine_ = nullptr;
Testbed* AnalysisParallelTest::bed_ = nullptr;
CampaignResult* AnalysisParallelTest::result_ = nullptr;

TEST_F(AnalysisParallelTest, CampaignProducesWork) {
  // Guard against the identity tests passing vacuously.
  ASSERT_NE(result_, nullptr);
  EXPECT_GT(result_->hits.size(), 0u);
  EXPECT_GT(result_->unsolicited.size(), 0u);
}

TEST_F(AnalysisParallelTest, ExportedJsonIsByteIdenticalForAnyWorkerCount) {
  std::string serial = export_campaign_json(*bed_, *result_, 1);
  ASSERT_FALSE(serial.empty());
  for (int workers : {2, 4}) {
    EXPECT_EQ(serial, export_campaign_json(*bed_, *result_, workers))
        << "workers=" << workers;
  }
}

TEST_F(AnalysisParallelTest, ParallelCorrelateMatchesSerial) {
  CampaignResult serial = *result_;
  serial.correlate(1);
  for (int workers : {2, 4}) {
    CampaignResult parallel = *result_;
    parallel.correlate(workers);
    ASSERT_EQ(parallel.unsolicited.size(), serial.unsolicited.size());
    for (std::size_t i = 0; i < serial.unsolicited.size(); ++i) {
      EXPECT_EQ(parallel.unsolicited[i].seq, serial.unsolicited[i].seq);
      EXPECT_EQ(parallel.unsolicited[i].interval, serial.unsolicited[i].interval);
      EXPECT_EQ(parallel.unsolicited[i].hit.time, serial.unsolicited[i].hit.time);
    }
    EXPECT_EQ(parallel.findings.size(), serial.findings.size());
  }
}

TEST_F(AnalysisParallelTest, EveryTableMatchesSerialUnderParallelScan) {
  const auto& ledger = result_->ledger;
  const auto& unsolicited = result_->unsolicited;
  auto ratios1 = path_ratios(ledger, unsolicited, 1);
  auto resolver_h = top_shadowed_resolvers(ratios1, 5);
  auto dns1 = interval_cdf_by_resolver(ledger, unsolicited, resolver_h, 1);
  auto web1 = interval_cdf_by_protocol(unsolicited, 1);
  auto combos1 = protocol_combos(ledger, unsolicited, {}, 1);
  auto retention1 = retention_stats(ledger, unsolicited, resolver_h, "Yandex", 1);
  auto incentives1 = incentive_stats(unsolicited, bed_->signatures(), bed_->blocklist(), 1);

  for (int workers : {2, 4}) {
    auto ratiosN = path_ratios(ledger, unsolicited, workers);
    for (const auto& [key, by_country] : ratios1.cells) {
      auto it = ratiosN.cells.find(key);
      ASSERT_NE(it, ratiosN.cells.end());
      for (const auto& [country, cell] : by_country) {
        EXPECT_EQ(it->second.at(country).paths, cell.paths);
        EXPECT_EQ(it->second.at(country).problematic, cell.problematic);
      }
    }

    auto dnsN = interval_cdf_by_resolver(ledger, unsolicited, resolver_h, workers);
    ASSERT_EQ(dnsN.size(), dns1.size());
    for (auto& [name, cdf] : dns1) {
      ASSERT_TRUE(dnsN.count(name));
      EXPECT_EQ(dnsN.at(name).count(), cdf.count());
      EXPECT_DOUBLE_EQ(dnsN.at(name).quantile(0.5), cdf.quantile(0.5));
    }
    auto webN = interval_cdf_by_protocol(unsolicited, workers);
    ASSERT_EQ(webN.size(), web1.size());
    for (auto& [protocol, cdf] : web1) {
      EXPECT_EQ(webN.at(protocol).count(), cdf.count());
      EXPECT_DOUBLE_EQ(webN.at(protocol).quantile(0.5), cdf.quantile(0.5));
    }

    auto combosN = protocol_combos(ledger, unsolicited, {}, workers);
    EXPECT_EQ(combosN.decoys, combos1.decoys);
    EXPECT_EQ(combosN.shares, combos1.shares);

    auto retentionN = retention_stats(ledger, unsolicited, resolver_h, "Yandex", workers);
    EXPECT_DOUBLE_EQ(retentionN.over3_after_1h, retention1.over3_after_1h);
    EXPECT_DOUBLE_EQ(retentionN.over10_after_1h, retention1.over10_after_1h);
    EXPECT_DOUBLE_EQ(retentionN.web_after_10d, retention1.web_after_10d);
    EXPECT_EQ(retentionN.considered_decoys, retention1.considered_decoys);

    auto incentivesN =
        incentive_stats(unsolicited, bed_->signatures(), bed_->blocklist(), workers);
    EXPECT_EQ(incentivesN.http_requests, incentives1.http_requests);
    EXPECT_EQ(incentivesN.exploits_found, incentives1.exploits_found);
    EXPECT_EQ(incentivesN.payload_shares, incentives1.payload_shares);
    EXPECT_DOUBLE_EQ(incentivesN.dns_decoy_http_origin_blocklisted,
                     incentives1.dns_decoy_http_origin_blocklisted);
  }
}

TEST_F(AnalysisParallelTest, RetentionCountsOnlyDnsReuseAsLateRequests) {
  // The §5.1 ">3 after 1h" metric measures DNS-data reuse: web probes of
  // the decoy name must not inflate it. Compare against a manual count.
  auto resolver_h =
      top_shadowed_resolvers(path_ratios(result_->ledger, result_->unsolicited), 5);
  auto stats = retention_stats(result_->ledger, result_->unsolicited, resolver_h,
                               resolver_h.empty() ? "Yandex" : resolver_h.front());
  std::map<std::uint32_t, int> late_dns;
  for (const auto& request : result_->unsolicited) {
    const DecoyRecord* record = result_->ledger.by_seq(request.seq);
    if (record == nullptr || record->phase2 ||
        record->id.protocol != DecoyProtocol::kDns) {
      continue;
    }
    if (request.request_protocol == RequestProtocol::kDns && request.interval > kHour) {
      ++late_dns[request.seq];
    }
  }
  std::set<std::string> wanted(resolver_h.begin(), resolver_h.end());
  int total = 0;
  int over3 = 0;
  for (const auto& decoy : result_->ledger.decoys()) {
    if (decoy.phase2 || decoy.id.protocol != DecoyProtocol::kDns) continue;
    const PathRecord& path = result_->ledger.path(decoy.path_id);
    if (!wanted.empty() && wanted.count(path.dest_name) == 0) continue;
    ++total;
    auto it = late_dns.find(decoy.id.seq);
    if (it != late_dns.end() && it->second > 3) ++over3;
  }
  ASSERT_EQ(stats.considered_decoys, total);
  EXPECT_DOUBLE_EQ(stats.over3_after_1h,
                   total > 0 ? static_cast<double>(over3) / total : 0.0);
}

}  // namespace
}  // namespace shadowprobe::core
