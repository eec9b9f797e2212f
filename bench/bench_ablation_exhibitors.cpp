// Ablation: which exhibitor class produces which headline signal.
//
// Each run disables one ground-truth exhibitor class and reports the
// pipeline's headline numbers — the signal that collapses identifies the
// class responsible for it, confirming the analyses measure what they claim
// to measure.
#include <cstdio>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/report.h"
#include "shadow/profiles.h"

using namespace shadowprobe;

namespace {

struct Signals {
  double yandex_ratio = 0.0;     // Figure 3 headline
  int http_wire_located = 0;     // Table 2/3 HTTP mass
  int tls_dest_located = 0;      // Table 2 TLS destination mass
  int interception_rejected = 0; // Appendix E screen hits
};

Signals run(const char* label, shadow::ShadowConfig shadow_config) {
  std::printf("  running: %s\n", label);
  core::TestbedConfig config;
  config.topology = topo::TopologyConfig::from_env();
  config.topology.apply_scale(0.4);
  core::CampaignConfig campaign_config;
  campaign_config.total_duration = 12 * kDay;
  core::CampaignEngine engine(config, campaign_config, /*shard_count=*/1,
                              shadow::standard_exhibitors(shadow_config));
  core::CampaignResult campaign = engine.run();

  Signals signals;
  auto ratios = core::path_ratios(campaign.ledger, campaign.unsolicited);
  signals.yandex_ratio = ratios.total(core::DecoyProtocol::kDns, "Yandex").ratio();
  for (const auto& finding : campaign.findings) {
    if (finding.protocol == core::DecoyProtocol::kHttp && !finding.at_destination) {
      ++signals.http_wire_located;
    }
    if (finding.protocol == core::DecoyProtocol::kTls && finding.at_destination) {
      ++signals.tls_dest_located;
    }
  }
  signals.interception_rejected = campaign.screening.rejected_interception;
  return signals;
}

}  // namespace

int main() {
  std::printf("== Ablation: exhibitor classes vs headline signals ==\n\n");

  shadow::ShadowConfig all;
  Signals baseline = run("all exhibitor classes", all);

  shadow::ShadowConfig no_resolvers = all;
  no_resolvers.resolver_shadowing = false;
  Signals without_resolvers = run("without resolver-side shadowers", no_resolvers);

  shadow::ShadowConfig no_wire = all;
  no_wire.wire_http_observers = false;
  no_wire.wire_tls_observers = false;
  Signals without_wire = run("without on-wire DPI observers", no_wire);

  shadow::ShadowConfig no_dest = all;
  no_dest.tls_destination_shadowers = false;
  Signals without_dest = run("without destination-side TLS shadowers", no_dest);

  shadow::ShadowConfig no_noise = all;
  no_noise.dns_interception_noise = false;
  Signals without_noise = run("without interception middleboxes", no_noise);

  std::printf("\n");
  core::TextTable table({"configuration", "Yandex DNS ratio", "HTTP wire observers",
                         "TLS dest observers", "VPs rejected (interception)"});
  auto row = [&](const char* name, const Signals& s) {
    table.add_row({name, core::percent(s.yandex_ratio),
                   std::to_string(s.http_wire_located), std::to_string(s.tls_dest_located),
                   std::to_string(s.interception_rejected)});
  };
  row("all classes (baseline)", baseline);
  row("- resolver shadowers", without_resolvers);
  row("- on-wire DPI", without_wire);
  row("- destination TLS", without_dest);
  row("- interception noise", without_noise);
  std::printf("%s\n", table.str().c_str());

  std::printf("reading: each row zeroes exactly its own signal — resolver shadowers\n");
  std::printf("carry Figure 3's DNS ratios, DPI taps carry Table 2/3's on-wire HTTP\n");
  std::printf("mass, destination operators carry the TLS hop-10 mass, and the\n");
  std::printf("middleboxes are what the pair-resolver screen rejects VPs for.\n");
  return 0;
}
