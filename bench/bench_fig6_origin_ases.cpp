// Figure 6: origin autonomous systems of the unsolicited requests triggered
// by DNS decoys to Resolver_h.
//
// Paper shapes: Google (AS15169) is a heavy origin of unsolicited DNS
// queries (exhibitors prefer Google Public DNS for their lookups); decoys
// to one resolver fan out to multiple origin ASes (114DNS: 4 ASes, ISPs and
// cloud); 5.2% of origin addresses are on the blocklist.
#include <cstdio>

#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Figure 6: origin ASes of unsolicited requests");

  auto resolver_h = world.resolver_h();
  auto origins = core::origin_ases(world.result.ledger, world.result.unsolicited,
                                   resolver_h, world.bed().topology().geo(),
                                   world.bed().blocklist());
  for (const auto& name : resolver_h) {
    auto it = origins.per_resolver.find(name);
    if (it == origins.per_resolver.end()) continue;
    std::printf("decoys to %s (top origin ASes of %llu unsolicited requests):\n",
                name.c_str(), static_cast<unsigned long long>(it->second.total()));
    core::TextTable table({"origin AS", "requests", "share"});
    for (const auto& [as_label, count] : it->second.top(6)) {
      table.add_row({as_label, std::to_string(count), core::percent(it->second.share(as_label))});
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::uint64_t google = 0;
  std::uint64_t total = 0;
  std::size_t multi_as = 0;
  for (const auto& [resolver, counter] : origins.per_resolver) {
    google += counter.get("AS15169 Google LLC");
    total += counter.total();
    if (counter.distinct() >= 3) ++multi_as;
  }
  bench::paper_line("Google AS15169 among unsolicited-query origins", "significant",
                    total ? core::percent(static_cast<double>(google) / total) : "n/a");
  bench::paper_line("resolvers whose decoys fan out to >=3 origin ASes", "typical (114DNS: 4)",
                    std::to_string(multi_as) + " of " +
                        std::to_string(origins.per_resolver.size()));
  bench::paper_line("blocklisted DNS-query origin addresses", "5.2%",
                    core::percent(origins.dns_origin_blocklisted));
  std::printf("\ndistinct DNS-query origin addresses: %d\n", origins.distinct_dns_origins);
  return 0;
}
