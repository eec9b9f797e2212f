// Section 6 (discussion) as an experiment: what each proposed mitigation
// actually changes about the shadowing landscape.
//
//   - TLS 1.3 ECH: hides the true SNI from on-path devices; destination
//     operators (who terminate TLS) still see it.
//   - Encrypted DNS (DoT/DoH): blinds on-wire DNS observers, but "does not
//     mitigate data collection by the destination server, which decodes the
//     message and sees everything" — resolver-side shadowing is unchanged.
//   - Oblivious DNS (ODoH): splits visibility of origin and content — the
//     destination still shadows the names, but can no longer attribute them
//     to the querying client.
//
// Four campaigns run back-to-back: baseline, ECH, DoT, ODoH.
#include <cstdio>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/report.h"
#include "shadow/profiles.h"

using namespace shadowprobe;

namespace {

struct MitigationResult {
  double yandex_dns_ratio = 0.0;   // destination-side DNS shadowing
  int wire_dns_located = 0;        // on-wire DNS observers located
  int wire_tls_located = 0;        // on-wire TLS observers located
  int dest_tls_located = 0;        // destination-located TLS observers
  std::size_t https_hits = 0;      // unsolicited HTTPS (the probes still flow)
  double client_exposed = 0.0;     // share of resolver-side observations that
                                   // recorded a real VP as the client
};

MitigationResult run(const char* label, core::DnsDecoyTransport transport, bool ech) {
  std::printf("-- campaign: %s --\n", label);
  core::TestbedConfig config;
  config.topology = topo::TopologyConfig::from_env();
  config.topology.apply_scale(0.5);
  core::CampaignConfig campaign_config;
  campaign_config.total_duration = 20 * kDay;
  campaign_config.dns_transport = transport;
  campaign_config.tls_decoys_use_ech = ech;
  const shadow::ShadowDeployment* deployment = nullptr;
  core::CampaignEngine engine(config, campaign_config, /*shard_count=*/1,
                              shadow::standard_exhibitors({}, &deployment));
  core::CampaignResult campaign = engine.run();

  MitigationResult result;
  auto ratios = core::path_ratios(campaign.ledger, campaign.unsolicited);
  result.yandex_dns_ratio = ratios.total(core::DecoyProtocol::kDns, "Yandex").ratio();
  for (const auto& finding : campaign.findings) {
    if (finding.protocol == core::DecoyProtocol::kDns && !finding.at_destination) {
      ++result.wire_dns_located;
    }
    if (finding.protocol == core::DecoyProtocol::kTls) {
      if (finding.at_destination) {
        ++result.dest_tls_located;
      } else {
        ++result.wire_tls_located;
      }
    }
  }
  for (const auto& request : campaign.unsolicited) {
    if (request.request_protocol == core::RequestProtocol::kHttps) ++result.https_hits;
  }
  // Ground-truth peek (mitigation efficacy, not pipeline output): what did
  // the destination-side DNS shadowers record as the querying client?
  std::set<net::Ipv4Addr> vp_addrs;
  for (const auto* vp : campaign.active_vps) vp_addrs.insert(vp->addr);
  std::uint64_t exposed = 0;
  std::uint64_t total = 0;
  for (const auto& exhibitor : deployment->exhibitors) {
    if (exhibitor.label.rfind("resolver:", 0) != 0) continue;
    const auto& store = exhibitor.exhibitor->store();
    for (std::size_t i = 0; i < store.size(); ++i) {
      ++total;
      if (vp_addrs.count(store.at(i).client) > 0) ++exposed;
    }
  }
  result.client_exposed = total == 0 ? 0.0 : static_cast<double>(exposed) / total;
  std::printf("   done: %zu unsolicited requests\n\n", campaign.unsolicited.size());
  return result;
}

}  // namespace

int main() {
  std::printf("== Section 6: mitigation experiments ==\n\n");
  MitigationResult baseline = run("baseline (plain DNS, clear SNI)",
                                  core::DnsDecoyTransport::kPlain, false);
  MitigationResult ech = run("TLS ECH", core::DnsDecoyTransport::kPlain, true);
  MitigationResult dot = run("encrypted DNS (DoT)", core::DnsDecoyTransport::kEncrypted,
                             false);
  MitigationResult odoh = run("oblivious DNS (ODoH)", core::DnsDecoyTransport::kOblivious,
                              false);

  core::TextTable table({"metric", "baseline", "ECH", "DoT", "ODoH"});
  auto pct = [](double v) { return core::percent(v); };
  table.add_row({"Yandex DNS shadowing ratio", pct(baseline.yandex_dns_ratio),
                 pct(ech.yandex_dns_ratio), pct(dot.yandex_dns_ratio),
                 pct(odoh.yandex_dns_ratio)});
  table.add_row({"on-wire DNS observers located", std::to_string(baseline.wire_dns_located),
                 std::to_string(ech.wire_dns_located), std::to_string(dot.wire_dns_located),
                 std::to_string(odoh.wire_dns_located)});
  table.add_row({"on-wire TLS observers located", std::to_string(baseline.wire_tls_located),
                 std::to_string(ech.wire_tls_located), std::to_string(dot.wire_tls_located),
                 std::to_string(odoh.wire_tls_located)});
  table.add_row({"destination TLS observers", std::to_string(baseline.dest_tls_located),
                 std::to_string(ech.dest_tls_located), std::to_string(dot.dest_tls_located),
                 std::to_string(odoh.dest_tls_located)});
  table.add_row({"client identity exposed to resolver-side shadowers",
                 pct(baseline.client_exposed), pct(ech.client_exposed),
                 pct(dot.client_exposed), pct(odoh.client_exposed)});
  std::printf("%s\n", table.str().c_str());

  std::printf("paper (Section 6) expectations:\n");
  std::printf("  - ECH blinds on-wire TLS observers; destination operators still see SNI\n");
  std::printf("  - encrypted DNS does NOT reduce destination-side (resolver) shadowing\n");
  std::printf("  - oblivious relaying keeps the shadowing but strips client identity\n");
  return 0;
}
