// Table 1: Capabilities of the VPN measurement platform — providers, VP
// addresses, ASes, and countries/provinces per platform half, after the
// screening filters (Appendix C/E) ran. Also dumps the provider listing
// (Table 5 context).
#include <cstdio>

#include "harness.h"
#include "topo/data.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Table 1: VPN measurement platform");

  auto rows = core::summarize_platform(world.result.active_vps);
  core::TextTable table({"group", "providers", "IPs", "ASes", "countries/provinces"});
  for (const auto& row : rows) {
    table.add_row({row.group, std::to_string(row.providers), std::to_string(row.ips),
                   std::to_string(row.ases), std::to_string(row.regions)});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf("shape checks against the paper (absolute counts scale with "
              "SHADOWPROBE_SCALE; the paper platform is 2,179 + 2,185 VPs):\n");
  bench::paper_line("platform halves roughly equal in size", "2179 vs 2185",
                    std::to_string(rows[0].ips) + " vs " + std::to_string(rows[1].ips));
  bench::paper_line("global providers / CN providers", "6 / 13",
                    std::to_string(rows[0].providers) + " / " +
                        std::to_string(rows[1].providers));
  bench::paper_line("CN provinces covered", "30 of 31", std::to_string(rows[1].regions));

  const auto& screening = world.result.screening;
  std::printf("\nscreening (Appendix C/E): %d candidates -> %d usable "
              "(%d residential, %d TTL-mangling, %d DNS-intercepted removed)\n",
              screening.candidates, screening.usable, screening.rejected_residential,
              screening.rejected_ttl_mangling, screening.rejected_interception);

  // Table 6 context: the capability survey that motivated building a new
  // VPN platform — only VPN-based, volunteer-free VPs support hop-by-hop
  // tracerouting over application protocols with custom IP TTLs.
  std::printf("\nplatform survey (Table 6 context):\n");
  core::TextTable survey({"platform", "volunteer-free", "non-residential", "DNS/HTTP/TLS",
                          "custom TTL"});
  survey.add_row({"Ark / RIPE Atlas (crowdsourcing)", "no", "no", "partial", "no"});
  survey.add_row({"OONI (crowdsourcing)", "no", "no", "yes", "yes"});
  survey.add_row({"Satellite-Iris (scanners)", "yes", "-", "DNS only", "no"});
  survey.add_row({"BrightData / ProxyRack (proxies)", "yes", "no", "partial", "no"});
  survey.add_row({"WARP (VPN, Cloudflare ASes only)", "yes", "yes", "yes", "yes"});
  survey.add_row({"ICLab (VPN, not public)", "partial", "yes", "yes", "yes"});
  survey.add_row({"Tor", "no", "no", "yes", "no"});
  survey.add_row({"this work (VPN)", "yes", "yes", "yes", "yes"});
  std::printf("%s\n", survey.str().c_str());

  std::printf("provider catalog (Table 5 context):\n");
  core::TextTable providers({"provider", "platform", "accepted"});
  for (const auto& p : topo::vpn_providers()) {
    providers.add_row({p.name, p.cn_platform ? "China" : "Global",
                       (p.resets_ttl || p.residential) ? "rejected" : "yes"});
  }
  std::printf("%s", providers.str().c_str());
  return 0;
}
