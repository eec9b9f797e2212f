// Using the library to study a hypothetical exhibitor: a FireEye-style
// security appliance that harvests URLs from HTTP traffic it fronts and
// schedules verification scans through cloud proxies minutes later (the
// behaviour reported in the paper's reference [43]).
//
// The example deploys the custom profile on one hosting network's border,
// runs the pipeline, and reports how the appliance shows up in each
// analysis: path ratios, observer location, temporal CDF, and payloads.

#include <cstdio>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/report.h"
#include "shadow/exhibitor.h"
#include "shadow/observers.h"
#include "shadow/prober.h"

using namespace shadowprobe;

namespace {

// Everything the appliance deployment plants on one testbed; the engine
// keeps it alive for the campaign.
struct ApplianceDeployment {
  std::unique_ptr<shadow::Exhibitor> exhibitor;
  std::vector<std::unique_ptr<shadow::ProberHost>> proxies;
  std::unique_ptr<shadow::WireTap> tap;
};

// The appliance profile: sees HTTP only, retains every URL host, scans once
// within the hour through two cloud proxies.
shadow::ExhibitorConfig appliance_profile() {
  shadow::ExhibitorConfig appliance;
  appliance.name = "security-appliance";
  appliance.sees_dns = false;
  appliance.sees_tls = false;
  appliance.observe_probability = 1.0;
  appliance.waves.push_back({.probability = 1.0,
                             .delay_median = 20 * kMinute,
                             .delay_sigma = 0.8,
                             .requests_min = 1,
                             .requests_max = 1,
                             .dns_weight = 0.0,
                             .http_weight = 1.0,
                             .https_weight = 0.0,
                             .http_paths = 2});
  appliance.probe_resolver = net::Ipv4Addr(8, 8, 8, 8);
  return appliance;
}

constexpr std::uint32_t kProtectedAs = 14061;

std::shared_ptr<void> deploy_appliance(core::Testbed& bed) {
  auto deployment = std::make_shared<ApplianceDeployment>();
  deployment->exhibitor = std::make_unique<shadow::Exhibitor>(
      appliance_profile(), bed.fork_rng("appliance"), bed.loop());
  for (int i = 0; i < 2; ++i) {
    auto proxy = std::make_unique<shadow::ProberHost>(
        "scan-proxy-" + std::to_string(i), bed.fork_rng("proxy" + std::to_string(i)),
        bed.signatures());
    sim::NodeId node = bed.add_host_in_as(16509, proxy->name(), proxy.get());
    proxy->bind(bed.net(), node, bed.net().address(node));
    // Security scanners' proxies are exactly the addresses blocklists list.
    bed.note_blocklisted(proxy->addr());
    deployment->exhibitor->add_prober(proxy.get());
    deployment->proxies.push_back(std::move(proxy));
  }
  // The appliance fronts one US hosting network (protecting its sites).
  deployment->tap = std::make_unique<shadow::WireTap>(
      *deployment->exhibitor,
      shadow::WireTap::Filter{.dns = false, .http = true, .tls = false});
  bed.net().add_tap(bed.topology().as_by_number(kProtectedAs)->border,
                    deployment->tap.get());
  return deployment;
}

}  // namespace

int main() {
  core::TestbedConfig config;
  config.topology.global_vps = 24;
  config.topology.cn_vps = 8;
  config.topology.web_sites = 12;

  core::CampaignConfig campaign_config;
  campaign_config.phase1_window = 3 * kHour;
  campaign_config.phase2_grace = 6 * kHour;
  campaign_config.total_duration = 4 * kDay;
  core::CampaignEngine engine(config, campaign_config, /*shard_count=*/1, deploy_appliance);
  core::Testbed& bed = engine.primary();
  const topo::AsRecord* protected_as = bed.topology().as_by_number(kProtectedAs);
  std::printf("deployed %s in front of %s (AS%u)\n\n", appliance_profile().name.c_str(),
              protected_as->name.c_str(), protected_as->asn);
  core::CampaignResult campaign = engine.run();

  // 1. Which destinations became problematic? (only sites behind the AS)
  auto ratios = core::path_ratios(campaign.ledger, campaign.unsolicited);
  std::printf("problematic HTTP destinations:\n");
  core::TextTable table({"dest country", "problematic", "paths"});
  for (const auto& dest : ratios.destinations_by_ratio(core::DecoyProtocol::kHttp)) {
    auto cell = ratios.total(core::DecoyProtocol::kHttp, dest);
    if (cell.problematic == 0) continue;
    table.add_row({dest, std::to_string(cell.problematic), std::to_string(cell.paths)});
  }
  std::printf("%s\n", table.str().c_str());

  // 2. Where does the pipeline place the appliance?
  auto locations = core::observer_locations(campaign.findings);
  if (locations.located_paths.count(core::DecoyProtocol::kHttp)) {
    std::printf("observer location (HTTP, normalized):");
    for (int hop = 1; hop <= 10; ++hop) {
      std::printf(" %d:%.0f%%", hop,
                  locations.shares[core::DecoyProtocol::kHttp][hop] * 100);
    }
    std::printf("\n");
  }

  // 3. How fast does it scan, and what does it fetch?
  Cdf intervals;
  for (const auto& request : campaign.unsolicited) {
    intervals.add(to_seconds(request.interval));
  }
  auto incentives = core::incentive_stats(campaign.unsolicited, bed.signatures(),
                                          bed.blocklist());
  std::printf("scan latency: median %s, p90 %s\n",
              format_duration(from_seconds(intervals.quantile(0.5))).c_str(),
              format_duration(from_seconds(intervals.quantile(0.9))).c_str());
  std::printf("scan origins blocklisted: %s (the proxies), exploit payloads: %s\n",
              core::percent(incentives.dns_decoy_http_origin_blocklisted +
                            incentives.web_decoy_http_origin_blocklisted).c_str(),
              incentives.exploits_found ? "yes" : "none");
  return 0;
}
