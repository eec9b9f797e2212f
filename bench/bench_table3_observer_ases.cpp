// Table 3: Top networks of on-path traffic observers, from the observer
// addresses that ICMP Time-Exceeded responses revealed during Phase II.
//
// Paper shapes: HTTP/TLS observers dominated by CHINANET-BACKBONE (AS4134,
// 44%/54%) plus CN provincial networks; the thin DNS on-wire tail sits in
// hosting networks (HostRoyale, Zenlayer) and China Unicom Beijing; 79% of
// all observer IPs geolocate to CN.
#include <cstdio>

#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Table 3: top observer ASes");

  auto table = core::observer_ases(world.result.findings, world.bed().topology().geo());
  for (core::DecoyProtocol protocol :
       {core::DecoyProtocol::kDns, core::DecoyProtocol::kHttp, core::DecoyProtocol::kTls}) {
    std::printf("%s decoys:\n", core::decoy_protocol_name(protocol).c_str());
    core::TextTable rows({"AS", "name", "country", "observer IPs", "share"});
    int printed = 0;
    for (const auto& row : table.rows[protocol]) {
      rows.add_row({"AS" + std::to_string(row.asn), row.as_name, row.country,
                    std::to_string(row.observer_ips), core::percent(row.share)});
      if (++printed == 3) break;  // the paper lists the top 3 per protocol
    }
    std::printf("%s\n", rows.str().c_str());
  }

  auto top_asn = [&](core::DecoyProtocol p) -> std::string {
    if (table.rows[p].empty()) return "none";
    const auto& row = table.rows[p].front();
    return "AS" + std::to_string(row.asn) + " (" + core::percent(row.share) + ")";
  };
  bench::paper_line("top HTTP observer AS", "AS4134 (44%)",
                    top_asn(core::DecoyProtocol::kHttp));
  bench::paper_line("top TLS observer AS", "AS4134 (54%)",
                    top_asn(core::DecoyProtocol::kTls));
  bench::paper_line("observer IPs geolocating to CN", "79%",
                    core::percent(table.observer_countries.share("CN")));
  std::printf("\ntotal distinct observer IPs revealed by ICMP: %d (paper: 572)\n",
              table.total_observer_ips);
  return 0;
}
