// End-to-end blind evaluation: the full pipeline (screening, Phase I,
// Phase II, correlation, analysis) runs against the standard ground-truth
// exhibitor deployment, and the recovered landscape is checked against what
// was actually deployed — the reproduction's equivalent of validating the
// methodology.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/portscan.h"
#include "shadow/profiles.h"

namespace shadowprobe {
namespace {

core::TestbedConfig e2e_config() {
  core::TestbedConfig config;
  config.topology.seed = 424242;
  config.topology.global_vps = 40;
  config.topology.cn_vps = 40;
  config.topology.web_sites = 16;
  return config;
}

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::CampaignConfig campaign_config;
    campaign_config.total_duration = 25 * kDay;
    engine_ = new core::CampaignEngine(e2e_config(), campaign_config, 1,
                                       shadow::standard_exhibitors({}, &deployment_));
    campaign_ = new core::CampaignResult(engine_->run());
  }

  static void TearDownTestSuite() {
    delete campaign_;
    campaign_ = nullptr;
    delete engine_;  // owns *deployment_
    engine_ = nullptr;
    deployment_ = nullptr;
  }

  /// The testbed the campaign ran on (geo database, blocklist, signatures).
  static core::Testbed& bed() { return engine_->primary(); }

  static core::CampaignEngine* engine_;
  static const shadow::ShadowDeployment* deployment_;
  static core::CampaignResult* campaign_;
};

core::CampaignEngine* EndToEnd::engine_ = nullptr;
const shadow::ShadowDeployment* EndToEnd::deployment_ = nullptr;
core::CampaignResult* EndToEnd::campaign_ = nullptr;

TEST_F(EndToEnd, ScreeningRemovesDefectiveProviders) {
  const auto& screening = campaign_->screening;
  EXPECT_EQ(screening.candidates, 80);
  EXPECT_GT(screening.usable, 60);
  EXPECT_LT(screening.usable, screening.candidates);
  // Every active VP honours requested TTLs and sits behind clean paths.
  for (const auto* vp : campaign_->active_vps) {
    EXPECT_FALSE(vp->resets_ttl) << vp->id;
    EXPECT_FALSE(vp->residential) << vp->id;
  }
}

TEST_F(EndToEnd, CampaignProducesUnsolicitedRequests) {
  EXPECT_GT(campaign_->ledger.decoy_count(), 1000u);
  EXPECT_GT(campaign_->unsolicited.size(), 100u);
  EXPECT_GT(campaign_->hits.size(), campaign_->unsolicited.size());
}

TEST_F(EndToEnd, ResolverHMatchesGroundTruth) {
  auto ratios = core::path_ratios(campaign_->ledger, campaign_->unsolicited);
  auto top = core::top_shadowed_resolvers(ratios, 5);
  std::set<std::string> recovered(top.begin(), top.end());
  // The pipeline must rediscover the deployed destination-side shadowers.
  for (const auto& name : deployment_->shadowing_resolvers) {
    EXPECT_TRUE(recovered.count(name)) << "missed " << name;
  }
}

TEST_F(EndToEnd, UnshadowedDestinationsStayQuiet) {
  auto ratios = core::path_ratios(campaign_->ledger, campaign_->unsolicited);
  // Roots, TLDs and the self-built control resolver have (next to) no
  // shadowing — the only residue allowed is the thin on-wire DNS observer
  // tail (Table 3's sub-percent DNS rows).
  for (const char* quiet : {"a.root", "m.root", ".com", ".org", "self-built"}) {
    auto cell = ratios.total(core::DecoyProtocol::kDns, quiet);
    EXPECT_GT(cell.paths, 0) << quiet;
    EXPECT_LT(cell.ratio(), 0.08) << quiet;
  }
  // ...and they never rank anywhere near Resolver_h.
  auto top = core::top_shadowed_resolvers(ratios, 5);
  for (const auto& name : top) {
    EXPECT_NE(name, "self-built");
    EXPECT_NE(name, "a.root");
  }
}

TEST_F(EndToEnd, Cn114DnsAsymmetryRecovered) {
  // Case study II: 114DNS shadowing is exhibited by its CN anycast
  // instances only; CN VPs see high ratios, global VPs see (almost) none.
  auto ratios = core::path_ratios(campaign_->ledger, campaign_->unsolicited);
  auto cn = ratios.group(core::DecoyProtocol::kDns, "114DNS", /*cn_platform=*/true);
  auto global = ratios.group(core::DecoyProtocol::kDns, "114DNS", /*cn_platform=*/false);
  ASSERT_GT(cn.paths, 0);
  ASSERT_GT(global.paths, 0);
  EXPECT_GT(cn.ratio(), 0.6);
  EXPECT_LT(global.ratio(), 0.2);
  // Yandex, by contrast, shadows globally.
  auto yandex_global = ratios.group(core::DecoyProtocol::kDns, "Yandex", false);
  EXPECT_GT(yandex_global.ratio(), 0.7);
}

TEST_F(EndToEnd, DnsObserversLocateAtDestination) {
  auto locations = core::observer_locations(campaign_->findings);
  ASSERT_GT(locations.located_paths[core::DecoyProtocol::kDns], 0);
  // Paper Table 2: 99.7% of DNS observers at normalized hop 10.
  EXPECT_GT(locations.shares[core::DecoyProtocol::kDns][10], 0.95);
}

TEST_F(EndToEnd, HttpObserversLocateOnTheWire) {
  auto locations = core::observer_locations(campaign_->findings);
  ASSERT_GT(locations.located_paths[core::DecoyProtocol::kHttp], 0);
  // Paper Table 2: 97.7% of HTTP observers on the wire (hops 1-9).
  EXPECT_LT(locations.shares[core::DecoyProtocol::kHttp][10], 0.3);
}

TEST_F(EndToEnd, IcmpRevealedObserverAddressesMatchDeployedTaps) {
  int matched = 0;
  int total = 0;
  for (const auto& finding : campaign_->findings) {
    if (!finding.observer_addr) continue;
    ++total;
    if (deployment_->all_wire_observer_addrs().count(*finding.observer_addr) > 0) {
      ++matched;
    }
  }
  ASSERT_GT(total, 0);
  // The large majority of located on-wire observers are real deployed taps
  // (a small remainder is expected: multi-observer paths attribute to the
  // first tap on the path).
  EXPECT_GT(static_cast<double>(matched) / total, 0.6);
}

TEST_F(EndToEnd, ObserverAsesIncludeChinanet) {
  auto table = core::observer_ases(campaign_->findings, bed().topology().geo());
  ASSERT_FALSE(table.rows[core::DecoyProtocol::kHttp].empty());
  bool found_4134 = false;
  for (const auto& row : table.rows[core::DecoyProtocol::kHttp]) {
    if (row.asn == 4134) found_4134 = true;
  }
  EXPECT_TRUE(found_4134);
  // Most observer IPs geolocate to CN (paper: 79%).
  EXPECT_GT(table.observer_countries.share("CN"), 0.5);
}

TEST_F(EndToEnd, TemporalShapesMatchThePaper) {
  auto ratios = core::path_ratios(campaign_->ledger, campaign_->unsolicited);
  auto resolver_h = core::top_shadowed_resolvers(ratios, 5);
  auto cdfs = core::interval_cdf_by_resolver(campaign_->ledger, campaign_->unsolicited,
                                             resolver_h);
  ASSERT_TRUE(cdfs.count("Yandex"));
  const Cdf& yandex = cdfs.at("Yandex");
  // A sizable share arrives within a minute (benign re-queries)...
  EXPECT_GT(yandex.at(60.0), 0.01);
  // ...and a sizable share only after a day (true shadowing).
  EXPECT_LT(yandex.at(to_seconds(kDay)), 0.95);
  EXPECT_GT(yandex.max(), to_seconds(5 * kDay));
}

TEST_F(EndToEnd, HttpTlsRetentionShorterThanDns) {
  auto by_protocol = core::interval_cdf_by_protocol(campaign_->unsolicited);
  ASSERT_TRUE(by_protocol.count(core::DecoyProtocol::kHttp));
  // Figure 7: most HTTP-decoy requests arrive within a day.
  EXPECT_GT(by_protocol.at(core::DecoyProtocol::kHttp).at(to_seconds(kDay)), 0.6);
}

TEST_F(EndToEnd, ProtocolConversionObserved) {
  // Figure 5: a large share of Yandex DNS decoys leads to HTTP(S) probes.
  auto combos = core::protocol_combos(campaign_->ledger, campaign_->unsolicited);
  ASSERT_TRUE(combos.shares.count("Yandex"));
  double web = combos.shares["Yandex"][core::DecoyOutcome::kWebWithinDay] +
               combos.shares["Yandex"][core::DecoyOutcome::kWebAfterDays];
  EXPECT_GT(web, 0.3);
  // Google (no shadower, only benign re-queries): DNS-DNS only.
  if (combos.shares.count("Google")) {
    EXPECT_DOUBLE_EQ(combos.shares["Google"][core::DecoyOutcome::kWebWithinDay], 0.0);
    EXPECT_DOUBLE_EQ(combos.shares["Google"][core::DecoyOutcome::kWebAfterDays], 0.0);
  }
}

TEST_F(EndToEnd, OriginAnalysisFindsGoogleAndBlocklistHits) {
  auto ratios = core::path_ratios(campaign_->ledger, campaign_->unsolicited);
  auto resolver_h = core::top_shadowed_resolvers(ratios, 5);
  auto origins = core::origin_ases(campaign_->ledger, campaign_->unsolicited,
                                   resolver_h, bed().topology().geo(), bed().blocklist());
  // Exhibitor fleets prefer Google Public DNS for their lookups, so Google
  // is a heavy origin of unsolicited DNS queries (Figure 6).
  std::uint64_t google = 0;
  for (const auto& [resolver, counter] : origins.per_resolver) {
    google += counter.get("AS15169 Google LLC");
  }
  EXPECT_GT(google, 0u);
  EXPECT_GT(origins.distinct_dns_origins, 5);
  // DNS-query origins are far less blocklisted than the web-probing proxies
  // (paper: 5.2% vs 45-72%).
  auto incentives = core::incentive_stats(campaign_->unsolicited, bed().signatures(),
                                          bed().blocklist());
  EXPECT_LT(origins.dns_origin_blocklisted,
            incentives.dns_decoy_http_origin_blocklisted);
  EXPECT_LT(origins.dns_origin_blocklisted, 0.5);
}

TEST_F(EndToEnd, MultiUseRetentionObserved) {
  auto ratios = core::path_ratios(campaign_->ledger, campaign_->unsolicited);
  auto resolver_h = core::top_shadowed_resolvers(ratios, 5);
  auto stats = core::retention_stats(campaign_->ledger, campaign_->unsolicited,
                                     resolver_h, "Yandex");
  ASSERT_GT(stats.considered_decoys, 0);
  // Section 5.1 shapes: a large share of decoys keeps producing requests
  // beyond one hour; some data re-appears 10 days later.
  EXPECT_GT(stats.over3_after_1h, 0.10);
  EXPECT_GT(stats.web_after_10d, 0.05);
}

TEST_F(EndToEnd, PayloadsAreReconnaissanceNotExploits) {
  auto stats = core::incentive_stats(campaign_->unsolicited, bed().signatures(),
                                     bed().blocklist());
  ASSERT_GT(stats.http_requests, 0);
  EXPECT_FALSE(stats.exploits_found);
  EXPECT_GT(stats.payload_shares[intel::PayloadClass::kPathEnumeration], 0.5);
  // Reputation: web-probing origins are heavily blocklisted.
  EXPECT_GT(stats.dns_decoy_http_origin_blocklisted, 0.2);
}

TEST_F(EndToEnd, PortScanFindsBgpAmongObservers) {
  // Scan the ICMP-revealed observer addresses, as Section 5.2 does.
  std::set<net::Ipv4Addr> observers;
  for (const auto& finding : campaign_->findings) {
    if (finding.observer_addr) observers.insert(*finding.observer_addr);
  }
  ASSERT_FALSE(observers.empty());
  // The engine's testbed is frozen and admits no new hosts; scan from a
  // fresh testbed of the same config, whose deployment places the routers'
  // open ports from the same seed.
  auto bed = core::Testbed::create(e2e_config());
  auto deployment = shadow::deploy_standard_exhibitors(*bed, shadow::ShadowConfig{});
  core::PortScanner scanner(bed->fork_rng("portscan-test"));
  sim::NodeId node = bed->add_host_in_as(21859, "scanner-e2e", &scanner);
  scanner.bind(bed->net(), node, bed->net().address(node));
  scanner.scan(std::vector<net::Ipv4Addr>(observers.begin(), observers.end()),
               core::PortScanner::default_ports());
  bed->loop().run_until(bed->loop().now() + kMinute);
  auto summary = scanner.summarize();
  EXPECT_EQ(summary.targets, static_cast<int>(observers.size()));
  // Most observers expose nothing; where something is open, BGP leads.
  EXPECT_GT(summary.no_open_share(), 0.6);
  if (summary.with_open_ports > 0) {
    EXPECT_EQ(summary.top_open_port(), 179);
  }
}

TEST_F(EndToEnd, DeterministicAcrossRuns) {
  // A second, smaller campaign with a fixed seed reproduces byte-identical
  // headline numbers.
  auto run_once = [] {
    core::TestbedConfig config;
    config.topology.seed = 777;
    config.topology.global_vps = 6;
    config.topology.cn_vps = 6;
    config.topology.web_sites = 4;
    shadow::ShadowConfig shadow_config;
    shadow_config.fleet_size = 2;
    core::CampaignConfig campaign_config;
    campaign_config.phase1_window = 2 * kHour;
    campaign_config.phase2_grace = 6 * kHour;
    campaign_config.total_duration = 5 * kDay;
    core::CampaignEngine engine(config, campaign_config, 1,
                                shadow::standard_exhibitors(shadow_config));
    core::CampaignResult campaign = engine.run();
    return std::make_tuple(campaign.ledger.decoy_count(), campaign.hits.size(),
                           campaign.unsolicited.size(), campaign.findings.size());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace shadowprobe
