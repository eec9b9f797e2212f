// Table 4: the DNS destinations decoys are sent to — 20 public resolvers at
// their real primary addresses, the self-built control resolver, 13 root
// servers, and 2 TLD servers — plus a live reachability check of each from
// the platform.
#include <cstdio>

#include "dnssrv/resolver.h"
#include "harness.h"
#include "topo/data.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Table 4: DNS destination servers");

  core::TextTable table({"type", "name", "IP", "AS", "decoys answered"});
  const auto& ledger = world.result.ledger;
  // Decoys answered: how many Phase-I DNS decoys to this destination got a
  // response back at the VP (reachability evidence).
  std::map<std::string, std::pair<int, int>> answered;  // name -> (responded, sent)
  for (const auto& decoy : ledger.decoys()) {
    if (decoy.phase2 || decoy.id.protocol != core::DecoyProtocol::kDns) continue;
    const auto& path = ledger.path(decoy.path_id);
    auto& cell = answered[path.dest_name];
    ++cell.second;
    if (decoy.dest_responded) ++cell.first;
  }
  auto kind_name = [](topo::DnsTargetKind kind) {
    switch (kind) {
      case topo::DnsTargetKind::kPublicResolver: return "Public resolver";
      case topo::DnsTargetKind::kSelfBuilt: return "Self-built resolver";
      case topo::DnsTargetKind::kRoot: return "Root server";
      case topo::DnsTargetKind::kTld: return "TLD server";
    }
    return "?";
  };
  for (const auto& target : world.bed().topology().dns_target_hosts()) {
    auto cell = answered[target.info.name];
    table.add_row({kind_name(target.info.kind), target.info.name, target.addr.str(),
                   "AS" + std::to_string(target.asn),
                   std::to_string(cell.first) + "/" + std::to_string(cell.second)});
  }
  std::printf("%s\n", table.str().c_str());

  int resolvers = 0;
  int roots = 0;
  int tlds = 0;
  for (const auto& target : world.bed().topology().dns_target_hosts()) {
    switch (target.info.kind) {
      case topo::DnsTargetKind::kPublicResolver: ++resolvers; break;
      case topo::DnsTargetKind::kRoot: ++roots; break;
      case topo::DnsTargetKind::kTld: ++tlds; break;
      default: break;
    }
  }
  bench::paper_line("public resolvers / roots / TLDs", "20 / 13 / 2",
                    std::to_string(resolvers) + " / " + std::to_string(roots) + " / " +
                        std::to_string(tlds));
  return 0;
}
