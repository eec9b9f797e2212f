// Section 5 payload and reputation statistics: what the unsolicited HTTP
// requests try to do, and how the origin addresses fare against the IP
// blocklist.
//
// Paper shapes: >=90-95% of unsolicited HTTP requests perform directory
// enumeration of the honey website; no exploit payloads at all; origin
// addresses are heavily blocklisted — 57% (HTTP) / 72% (HTTPS) for requests
// triggered by DNS decoys, 45% / 55% for HTTP/TLS decoys, but only 5.2% of
// the DNS-query origins.
#include <cstdio>

#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Section 5: probing incentives & reputation");

  auto stats = core::incentive_stats(world.result.unsolicited, world.bed().signatures(),
                                     world.bed().blocklist());
  std::printf("payload classes over %d unsolicited HTTP requests:\n", stats.http_requests);
  core::TextTable table({"class", "share"});
  for (const auto& [cls, share] : stats.payload_shares) {
    table.add_row({intel::payload_class_name(cls), core::percent(share)});
  }
  std::printf("%s\n", table.str().c_str());

  bench::paper_line("path enumeration among HTTP requests", ">=90-95%",
                    core::percent(
                        stats.payload_shares[intel::PayloadClass::kPathEnumeration]));
  bench::paper_line("exploit payloads found", "none",
                    stats.exploits_found ? "FOUND (!)" : "none");
  bench::paper_line("blocklisted HTTP origins (DNS decoys)", "57%",
                    core::percent(stats.dns_decoy_http_origin_blocklisted));
  bench::paper_line("blocklisted HTTPS origins (DNS decoys)", "72%",
                    core::percent(stats.dns_decoy_https_origin_blocklisted));
  bench::paper_line("blocklisted HTTP origins (HTTP/TLS decoys)", "45%",
                    core::percent(stats.web_decoy_http_origin_blocklisted));
  bench::paper_line("blocklisted HTTPS origins (HTTP/TLS decoys)", "55%",
                    core::percent(stats.web_decoy_https_origin_blocklisted));
  return 0;
}
