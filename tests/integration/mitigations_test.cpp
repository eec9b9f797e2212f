// Section-6 mitigation campaigns end-to-end: each mitigation removes
// exactly the exposure it should and nothing else.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "shadow/profiles.h"

namespace shadowprobe {
namespace {

struct MitigationRun {
  std::unique_ptr<core::CampaignEngine> engine;
  /// Deployment of the frozen testbed the one-shard campaign ran on; owned
  /// by `engine`.
  const shadow::ShadowDeployment* deployment = nullptr;
  core::CampaignResult campaign;
};

MitigationRun run_campaign(core::DnsDecoyTransport transport, bool ech) {
  MitigationRun run;
  core::TestbedConfig config;
  config.topology.seed = 505;
  config.topology.global_vps = 16;
  config.topology.cn_vps = 16;
  config.topology.web_sites = 10;
  core::CampaignConfig campaign_config;
  campaign_config.phase1_window = 4 * kHour;
  campaign_config.phase2_grace = 12 * kHour;
  campaign_config.total_duration = 10 * kDay;
  campaign_config.dns_transport = transport;
  campaign_config.tls_decoys_use_ech = ech;
  shadow::ShadowConfig shadow_config;
  shadow_config.fleet_size = 2;
  run.engine = std::make_unique<core::CampaignEngine>(
      config, campaign_config, 1,
      shadow::standard_exhibitors(shadow_config, &run.deployment));
  run.campaign = run.engine->run();
  return run;
}

int wire_located(const MitigationRun& run, core::DecoyProtocol protocol) {
  int n = 0;
  for (const auto& finding : run.campaign.findings) {
    if (finding.protocol == protocol && !finding.at_destination) ++n;
  }
  return n;
}

TEST(Mitigations, EchBlindsOnWireTlsObserversOnly) {
  MitigationRun baseline = run_campaign(core::DnsDecoyTransport::kPlain, false);
  MitigationRun ech = run_campaign(core::DnsDecoyTransport::kPlain, true);
  ASSERT_GT(wire_located(baseline, core::DecoyProtocol::kTls), 0);
  EXPECT_EQ(wire_located(ech, core::DecoyProtocol::kTls), 0);
  // Destination-side TLS shadowing (terminating parties) survives ECH.
  int dest_tls = 0;
  for (const auto& finding : ech.campaign.findings) {
    if (finding.protocol == core::DecoyProtocol::kTls && finding.at_destination) ++dest_tls;
  }
  EXPECT_GT(dest_tls, 0);
  // HTTP observation is untouched.
  EXPECT_GT(wire_located(ech, core::DecoyProtocol::kHttp), 0);
}

TEST(Mitigations, EncryptedDnsDoesNotBluntDestinationShadowing) {
  MitigationRun dot = run_campaign(core::DnsDecoyTransport::kEncrypted, false);
  auto ratios = core::path_ratios(dot.campaign.ledger, dot.campaign.unsolicited);
  // The resolver decrypts and shadows exactly as before (the paper's core
  // caveat about encrypted DNS).
  EXPECT_GT(ratios.total(core::DecoyProtocol::kDns, "Yandex").ratio(), 0.8);
  // But nothing on the wire can read the queries any more.
  EXPECT_EQ(wire_located(dot, core::DecoyProtocol::kDns), 0);
}

TEST(Mitigations, ObliviousDnsStripsClientIdentity) {
  MitigationRun odoh = run_campaign(core::DnsDecoyTransport::kOblivious, false);
  // Shadowing persists...
  auto ratios = core::path_ratios(odoh.campaign.ledger, odoh.campaign.unsolicited);
  EXPECT_GT(ratios.total(core::DecoyProtocol::kDns, "Yandex").ratio(), 0.8);
  // ...but no resolver-side exhibitor ever recorded a vantage point as the
  // querying client.
  std::set<net::Ipv4Addr> vp_addrs;
  for (const auto* vp : odoh.campaign.active_vps) vp_addrs.insert(vp->addr);
  for (const auto& exhibitor : odoh.deployment->exhibitors) {
    if (exhibitor.label.rfind("resolver:", 0) != 0) continue;
    const auto& store = exhibitor.exhibitor->store();
    for (std::size_t i = 0; i < store.size(); ++i) {
      EXPECT_EQ(vp_addrs.count(store.at(i).client), 0u)
          << exhibitor.label << " learned a real client address";
    }
  }
}

}  // namespace
}  // namespace shadowprobe
