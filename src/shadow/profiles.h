// Ground-truth exhibitor deployment, calibrated to the paper's findings.
//
// deploy_standard_exhibitors() installs onto a Testbed every shadowing
// behaviour the paper reports, so the measurement pipeline can rediscover
// the landscape blind:
//
//   Destination-side DNS shadowers (the paper's Resolver_h):
//     Yandex (>99% of decoys shadowed, data retained for days, 51% leading
//     to HTTP/HTTPS probes), 114DNS (CN anycast instances only — case study
//     II), One DNS, DNS PAI, Vercara.
//
//   On-wire DPI observers (Tables 2/3, Section 5.2):
//     HTTP/TLS taps on CHINANET-BACKBONE aggregation routers and provincial
//     AS borders (Jiangsu, Hubei, Shanghai, Beijing), a US observer at
//     AS40444 (Constant Contact, DNS-only replays from its own AS), a CA
//     observer at AS29988 (Rogers, DNS-only), and an AD destination-side
//     observer.
//
//   Destination-side TLS shadowers on a slice of web-farm sites (the 65%
//   "TLS observed at destination" mass of Table 2).
//
//   Noise sources the Appendix-E filters must handle: replicating DNS
//   interception middleboxes in two CN provinces and one TR network.
//
// The deployment also assigns synthetic reputation: a configurable share of
// prober addresses is registered in the testbed blocklist (the paper finds
// 45-72% of HTTP(S) origins and 5.2% of DNS origins listed).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "shadow/exhibitor.h"
#include "shadow/observers.h"

namespace shadowprobe::shadow {

struct ShadowConfig {
  bool resolver_shadowing = true;   // Resolver_h destination-side exhibitors
  bool wire_http_observers = true;  // CN/US/CA on-wire DPI
  bool wire_tls_observers = true;
  bool tls_destination_shadowers = true;
  bool dns_interception_noise = true;
  /// Probers per exhibitor fleet.
  int fleet_size = 6;
  /// Share of prober addresses registered on the blocklist, per traffic
  /// class (calibrated to Section 5 hit rates).
  double dns_prober_blocklisted = 0.05;
  double web_prober_blocklisted = 0.72;
};

/// One installed exhibitor with everything it owns.
struct DeployedExhibitor {
  std::string label;                  // "resolver:Yandex", "wire:AS4134", ...
  std::unique_ptr<Exhibitor> exhibitor;
  std::vector<std::unique_ptr<ProberHost>> probers;
  std::vector<std::unique_ptr<WireTap>> taps;
  std::vector<sim::NodeId> tap_nodes;  // routers the taps are attached to
};

/// The full ground truth, kept for validating the pipeline's findings.
struct ShadowDeployment {
  std::vector<DeployedExhibitor> exhibitors;
  std::vector<std::unique_ptr<DnsInterceptor>> interceptors;
  std::vector<sim::NodeId> interceptor_nodes;
  /// Management services of the minority of observer routers with open
  /// ports (Section 5.2's port-scan ground truth).
  std::vector<std::unique_ptr<RouterServices>> router_services;
  std::set<net::Ipv4Addr> routers_with_open_ports;

  /// Router addresses carrying on-wire observers, per decoy protocol — what
  /// Table 2/3 should rediscover.
  std::set<net::Ipv4Addr> wire_observer_addrs_dns;
  std::set<net::Ipv4Addr> wire_observer_addrs_http;
  std::set<net::Ipv4Addr> wire_observer_addrs_tls;

  /// Union of the per-protocol observer sets.
  [[nodiscard]] std::set<net::Ipv4Addr> all_wire_observer_addrs() const;
  /// Resolver names with destination-side shadowing (Resolver_h).
  std::set<std::string> shadowing_resolvers;

  [[nodiscard]] const DeployedExhibitor* find(const std::string& label) const;
};

ShadowDeployment deploy_standard_exhibitors(core::Testbed& bed, const ShadowConfig& config);

/// The standard deployment as a CampaignEngine decorator: installs it on
/// every testbed the engine builds and hands the engine its ownership.
/// `frozen`, when given, receives the deployment installed on a frozen
/// testbed. With one in-process shard that is the testbed the campaign runs
/// on; the World prototype's copy carries no traffic and is discarded. The
/// pointer stays valid while the engine lives. Pass `frozen` to one-shard
/// engines only: N shards build N frozen testbeds concurrently.
std::function<std::shared_ptr<void>(core::Testbed&)> standard_exhibitors(
    ShadowConfig config = {}, const ShadowDeployment** frozen = nullptr);

}  // namespace shadowprobe::shadow
