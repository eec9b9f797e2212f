// Phase-II walkthrough: plant a single on-wire DPI observer at a known
// router, run the hop-by-hop TTL sweep against one path, and show the
// locator pinpointing the device — hop index and ICMP-revealed address.
//
// This is Figure 2 of the paper as a runnable program.

#include <cstdio>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "shadow/exhibitor.h"
#include "shadow/observers.h"
#include "shadow/prober.h"

using namespace shadowprobe;

namespace {

// Everything the demo plants on one testbed; the engine keeps it alive for
// the campaign.
struct DemoDeployment {
  std::unique_ptr<shadow::Exhibitor> exhibitor;
  std::unique_ptr<shadow::ProberHost> prober;
  std::unique_ptr<shadow::WireTap> tap;
};

// Ground truth: an HTTP-sniffing device on the CN national gateway.
std::shared_ptr<void> plant_dpi_device(core::Testbed& bed) {
  shadow::ExhibitorConfig exhibitor_config;
  exhibitor_config.name = "demo-dpi";
  exhibitor_config.sees_dns = false;
  exhibitor_config.sees_tls = false;
  exhibitor_config.observe_probability = 1.0;
  exhibitor_config.waves.push_back({.probability = 1.0,
                                    .delay_median = 10 * kMinute,
                                    .delay_sigma = 0.5,
                                    .requests_min = 1,
                                    .requests_max = 2,
                                    .dns_weight = 0.3,
                                    .http_weight = 0.7,
                                    .http_paths = 3});
  exhibitor_config.probe_resolver = net::Ipv4Addr(8, 8, 8, 8);
  auto demo = std::make_shared<DemoDeployment>();
  demo->exhibitor = std::make_unique<shadow::Exhibitor>(
      exhibitor_config, bed.fork_rng("demo-ex"), bed.loop());

  demo->prober = std::make_unique<shadow::ProberHost>(
      "demo-prober", bed.fork_rng("demo-prober"), bed.signatures());
  sim::NodeId prober_node = bed.add_host_in_as(4134, "demo-prober", demo->prober.get());
  demo->prober->bind(bed.net(), prober_node, bed.net().address(prober_node));
  demo->exhibitor->add_prober(demo->prober.get());

  demo->tap = std::make_unique<shadow::WireTap>(
      *demo->exhibitor, shadow::WireTap::Filter{.dns = false, .http = true, .tls = false});
  bed.net().add_tap(bed.topology().national_gateway("CN"), demo->tap.get());
  return demo;
}

}  // namespace

int main() {
  // A small substrate, no standard exhibitors — we deploy exactly one.
  core::TestbedConfig config;
  config.topology.global_vps = 8;
  config.topology.cn_vps = 8;
  config.topology.web_sites = 6;

  // Run the standard two-phase campaign; the pipeline knows nothing about
  // the tap the decorator plants.
  core::CampaignConfig campaign_config;
  campaign_config.phase1_window = 2 * kHour;
  campaign_config.phase2_grace = 4 * kHour;
  campaign_config.total_duration = 3 * kDay;
  core::CampaignEngine engine(config, campaign_config, /*shard_count=*/1, plant_dpi_device);
  core::Testbed& bed = engine.primary();

  sim::NodeId gateway = bed.topology().national_gateway("CN");
  net::Ipv4Addr device_addr = bed.net().address(gateway);
  std::printf("ground truth: observer device at %s (%s)\n\n", device_addr.str().c_str(),
              bed.net().name(gateway).c_str());

  core::CampaignResult campaign = engine.run();
  std::printf("pipeline results: %zu unsolicited requests, %zu located paths\n\n",
              campaign.unsolicited.size(), campaign.findings.size());

  int correct = 0;
  int located = 0;
  for (const auto& finding : campaign.findings) {
    if (finding.at_destination || !finding.observer_addr) continue;
    const auto& path = campaign.ledger.path(finding.path_id);
    ++located;
    bool match = *finding.observer_addr == device_addr;
    correct += match;
    if (located <= 8) {
      std::printf("  path %-28s -> observer at hop %d of %d (normalized %d), "
                  "ICMP says %s %s\n",
                  (path.vp->id + " -> " + path.dest_name).c_str(),
                  finding.min_trigger_ttl, finding.dest_ttl, finding.normalized_hop,
                  finding.observer_addr->str().c_str(), match ? "[correct]" : "[other]");
    }
  }
  std::printf("\nlocated %d on-wire observers; %d point at the planted device\n", located,
              correct);
  std::printf("AS attribution: %s (AS%u)\n",
              bed.topology().geo().as_name(device_addr).c_str(),
              bed.topology().geo().asn(device_addr));
  return 0;
}
