// Table 2: Normalized location (1-10, 10 = destination) of traffic
// observers found by the Phase-II hop-by-hop TTL sweep.
//
// Paper shapes: DNS observers essentially all at the destination (99.7%);
// HTTP observers overwhelmingly on the wire, concentrated mid-path; TLS
// split between destination (65%) and mid-path devices.
#include <cstdio>

#include "common/strutil.h"
#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Table 2: normalized observer location");

  auto locations = core::observer_locations(world.result.findings);
  core::TextTable table({"hops from VP", "1", "2", "3", "4", "5", "6", "7", "8", "9",
                         "10 (dest)"});
  for (core::DecoyProtocol protocol :
       {core::DecoyProtocol::kDns, core::DecoyProtocol::kHttp, core::DecoyProtocol::kTls}) {
    std::vector<std::string> row = {core::decoy_protocol_name(protocol) + " (% observers)"};
    for (int hop = 1; hop <= 10; ++hop) {
      row.push_back(strprintf("%.2f", locations.shares[protocol][hop] * 100.0));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.str().c_str());

  auto at_dest = [&](core::DecoyProtocol p) { return locations.shares[p][10]; };
  bench::paper_line("DNS observers at destination", "99.7%",
                    core::percent(at_dest(core::DecoyProtocol::kDns)));
  bench::paper_line("HTTP observers on the wire", "97.7%",
                    core::percent(1.0 - at_dest(core::DecoyProtocol::kHttp)));
  bench::paper_line("TLS observers at destination", "65%",
                    core::percent(at_dest(core::DecoyProtocol::kTls)));
  std::printf("\nlocated paths: DNS %d, HTTP %d, TLS %d\n",
              locations.located_paths[core::DecoyProtocol::kDns],
              locations.located_paths[core::DecoyProtocol::kHttp],
              locations.located_paths[core::DecoyProtocol::kTls]);
  return 0;
}
