// Section 5.2: open ports of on-wire observers.
//
// Paper shapes: probing the ICMP-revealed observer addresses finds 92% with
// no open port at all; among the remainder, port 179 (BGP) is the most
// common — identifying the devices as routers between networks.
#include <cstdio>

#include <set>

#include "core/portscan.h"
#include "harness.h"

using namespace shadowprobe;

int main() {
  auto world = bench::run_standard_campaign("Section 5.2: observer open ports");

  std::set<net::Ipv4Addr> observers;
  for (const auto& finding : world.result.findings) {
    if (finding.observer_addr) observers.insert(*finding.observer_addr);
  }
  std::printf("scanning %zu ICMP-revealed observer addresses, %zu ports each...\n\n",
              observers.size(), core::PortScanner::default_ports().size());

  // The engine's testbed is frozen and admits no new hosts, so the scan runs
  // on a fresh testbed built from the same config: the deployment places the
  // routers' open ports from the seed, so the scan sees the same ports.
  auto bed = core::Testbed::create(world.config);
  auto deployment = shadow::deploy_standard_exhibitors(*bed, shadow::ShadowConfig{});
  core::PortScanner scanner(bed->fork_rng("bench-portscan"));
  sim::NodeId node = bed->add_host_in_as(21859, "bench-scanner", &scanner);
  scanner.bind(bed->net(), node, bed->net().address(node));
  scanner.scan(std::vector<net::Ipv4Addr>(observers.begin(), observers.end()),
               core::PortScanner::default_ports());
  bed->loop().run_until(bed->loop().now() + kMinute);

  auto summary = scanner.summarize();
  core::TextTable table({"open port", "observers"});
  for (const auto& [port, count] : summary.open_port_counts) {
    table.add_row({std::to_string(port), std::to_string(count)});
  }
  std::printf("%s\n", table.str().c_str());
  bench::paper_line("observers with no open ports", "92%",
                    core::percent(summary.no_open_share()));
  bench::paper_line("most common open port", "179 (BGP)",
                    summary.top_open_port() == 0 ? "none"
                                                 : std::to_string(summary.top_open_port()));
  return 0;
}
