// Figure 5: breakdown of Phase-I DNS decoys per destination resolver, by
// the most telling Decoy-Request outcome and its timing.
//
// Paper shapes: ~50% of decoys to Yandex and 114DNS end in unsolicited
// HTTP/HTTPS after hours or days; resolvers beyond Resolver_h produce only
// DNS-DNS repetitions, most within one hour; >99% of Yandex decoys are
// shadowed one way or another.
#include <cstdio>

#include "common/strutil.h"
#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Figure 5: decoy outcome breakdown");

  auto combos = core::protocol_combos(world.result.ledger,
                                      world.result.unsolicited);
  core::TextTable table({"destination", "none", "DNS-DNS <1h", "DNS-DNS >1h",
                         "DNS-HTTP(S) <1d", "DNS-HTTP(S) >1d", "decoys"});
  // Resolver_h first, then the busiest of the rest.
  std::vector<std::string> order = world.resolver_h();
  for (const char* extra : {"Google", "Cloudflare", "OpenDNS", "Quad9", "DNSPod",
                            "self-built", "a.root", ".com"}) {
    order.push_back(extra);
  }
  for (const auto& dest : order) {
    auto it = combos.shares.find(dest);
    if (it == combos.shares.end()) continue;
    std::vector<std::string> row = {dest};
    for (int o = 0; o <= static_cast<int>(core::DecoyOutcome::kWebAfterDays); ++o) {
      row.push_back(core::percent(it->second[static_cast<core::DecoyOutcome>(o)]));
    }
    row.push_back(std::to_string(combos.decoys[dest]));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());

  auto web_share = [&](const std::string& dest) {
    return combos.shares[dest][core::DecoyOutcome::kWebWithinDay] +
           combos.shares[dest][core::DecoyOutcome::kWebAfterDays];
  };
  bench::paper_line("Yandex decoys ending in HTTP(S) probes", "~51%",
                    core::percent(web_share("Yandex")));
  auto cn_combos = core::protocol_combos(world.result.ledger,
                                         world.result.unsolicited, {"CN"});
  double cn_114 = cn_combos.shares["114DNS"][core::DecoyOutcome::kWebWithinDay] +
                  cn_combos.shares["114DNS"][core::DecoyOutcome::kWebAfterDays];
  bench::paper_line("114DNS decoys ending in HTTP(S) probes (CN VPs)", "~50%",
                    core::percent(cn_114));
  bench::paper_line("Yandex decoys shadowed at all", ">99%",
                    core::percent(1.0 -
                                  combos.shares["Yandex"][core::DecoyOutcome::kNoUnsolicited]));
  bench::paper_line("Google decoys ending in HTTP(S)", "0% (DNS-DNS only)",
                    core::percent(web_share("Google")));
  return 0;
}
