// Testbed: the assembled substrate the measurement runs against.
//
// Owns the event loop, the simulated network, and every application layer
// of the substrate: 13 root servers and 2 TLD servers (real authoritative
// DNS), 20 public resolvers + the self-built control resolver (real
// recursive resolution, Google/Cloudflare/... at their Table-4 addresses,
// 114DNS with CN and US anycast instances), the Tranco-style web farm, and
// the three honeypots (US/DE/SG) feeding one shared logbook.
//
// Two construction modes (see core/world.h and DESIGN.md):
//   - Testbed::create builds everything from scratch in *authoring* mode:
//     it owns a mutable topology/layout/blocklist. World::build authors its
//     prototype this way, and most unit tests use it directly.
//   - Testbed::instantiate(world) builds a *frozen* per-shard instance over
//     a shared const World: topology, network layout, signatures, blocklist
//     and zone data are aliased read-only; only the live state (event loop,
//     server instances and their caches, logbook, RNG streams) is private.
//
// The testbed is exhibitor-free: shadow::deploy_standard_exhibitors (or a
// custom deployment) adds the ground-truth shadowing behaviour afterwards,
// keeping the pipeline-under-test blind to it.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/honeypot.h"
#include "core/web_server.h"
#include "dnssrv/auth_server.h"
#include "dnssrv/oblivious.h"
#include "dnssrv/resolver.h"
#include "intel/blocklist.h"
#include "intel/signatures.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace shadowprobe::core {

class World;

struct TestbedConfig {
  topo::TopologyConfig topology;
  /// Benign re-query behaviour of public resolvers (the paper's <1 min
  /// DNS-DNS cluster exists on virtually every resolver path).
  double resolver_requery_probability = 0.15;
  SimDuration resolver_requery_delay = 15 * kSecond;
  /// Active cache refresh at TTL expiry (ablation; default off — the paper
  /// observed no TTL-aligned spikes).
  bool resolver_refresh_on_expiry = false;
};

/// Frozen-mode construction record for one resolver: name, placement and
/// quirks as the authoring run fixed them. Captured by Testbed::create so
/// instantiate() can rebuild the instance without re-running the
/// egress-address allocation against the (different-looking) final plan.
struct ResolverSpec {
  std::string name;
  sim::NodeId node = sim::kInvalidNode;
  net::Ipv4Addr service;
  net::Ipv4Addr egress;
  dnssrv::ResolverQuirks quirks;
};

class Testbed {
 public:
  /// Authoring mode: builds a private, fully mutable substrate.
  static std::unique_ptr<Testbed> create(const TestbedConfig& config);
  /// Frozen mode: builds a per-shard instance whose structural reads alias
  /// the shared `world`. Live servers (resolvers with their caches,
  /// honeypots with their logbook, web farm, oblivious proxy) are fresh.
  static std::unique_ptr<Testbed> instantiate(std::shared_ptr<const World> world);

  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] sim::Network& net() noexcept { return *net_; }
  [[nodiscard]] const topo::Topology& topology() const noexcept { return *topo_view_; }
  [[nodiscard]] const TestbedConfig& config() const noexcept { return config_; }
  [[nodiscard]] HoneypotLogbook& logbook() noexcept { return logbook_; }
  [[nodiscard]] const intel::SignatureDb& signatures() const noexcept { return *signatures_; }
  [[nodiscard]] const intel::Blocklist& blocklist() const noexcept { return *blocklist_view_; }

  /// Shared substrate this instance was instantiated from; null in
  /// authoring mode.
  [[nodiscard]] const World* world() const noexcept { return world_.get(); }
  [[nodiscard]] bool frozen() const noexcept { return world_ != nullptr; }

  /// Creates (authoring) or replays (frozen) one host in AS `asn`. This is
  /// the only node-creation entry point run-phase code may use: in frozen
  /// mode the call consumes the next node of the layout's dynamic tail,
  /// verified by name, so shard construction cannot silently diverge from
  /// the plan the World was built with.
  sim::NodeId add_host_in_as(std::uint32_t asn, const std::string& name,
                             sim::DatagramHandler* handler = nullptr);

  /// Registers `addr` on the reputation blocklist (authoring) or verifies it
  /// is already listed (frozen — the World fixed the blocklist contents; a
  /// miss means the caller diverged from the World's deployment and throws).
  /// Callers must keep making the RNG draws that decide *whether* to call
  /// this, so streams stay aligned across modes.
  void note_blocklisted(net::Ipv4Addr addr);

  /// Resolver instance by target name; "114DNS-US" addresses the US anycast
  /// instance. Null for unknown names.
  [[nodiscard]] dnssrv::RecursiveResolver* resolver(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& resolver_names() const noexcept {
    return resolver_names_;
  }
  [[nodiscard]] WebSiteServer* web_server(int rank);

  /// Root hint addresses (the 13 root servers).
  [[nodiscard]] const std::vector<net::Ipv4Addr>& root_hints() const noexcept {
    return roots_;
  }

  /// The oblivious DNS relay (ODoH-style) available to privacy-conscious
  /// clients; hosted on neutral cloud infrastructure.
  [[nodiscard]] net::Ipv4Addr oblivious_proxy_addr() const noexcept {
    return oblivious_proxy_ ? oblivious_proxy_->addr() : net::Ipv4Addr();
  }

  /// Derives an independent RNG stream for a named consumer.
  [[nodiscard]] Rng fork_rng(std::string_view label) const { return rng_.fork(label); }

 private:
  friend class World;

  explicit Testbed(const TestbedConfig& config);        // authoring
  explicit Testbed(std::shared_ptr<const World> world); // frozen
  void build_dns_infrastructure();
  void build_honeypots();
  void build_web_farm();
  void add_resolver(const std::string& name, sim::NodeId node, net::Ipv4Addr service,
                    std::uint32_t asn);
  void instantiate_servers();  // frozen-mode body

  TestbedConfig config_;
  Rng rng_;
  sim::EventLoop loop_;
  std::unique_ptr<sim::Network> net_;

  // Structural substrate: owned in authoring mode, aliased from world_ when
  // frozen. The *_view_ pointers are the single read path either way.
  std::shared_ptr<const World> world_;
  std::shared_ptr<topo::Topology> topology_;        // authoring only
  const topo::Topology* topo_view_ = nullptr;
  std::shared_ptr<const intel::SignatureDb> signatures_;
  std::shared_ptr<intel::Blocklist> blocklist_own_; // authoring only
  const intel::Blocklist* blocklist_view_ = nullptr;
  sim::NodeId first_dynamic_node_ = 0;  // node count right after Topology::build
  std::shared_ptr<const dnssrv::Zone> root_zone_;
  std::shared_ptr<const dnssrv::Zone> com_zone_;
  std::shared_ptr<const dnssrv::Zone> org_zone_;
  std::shared_ptr<const dnssrv::Zone> experiment_zone_;
  std::vector<ResolverSpec> resolver_specs_;  // authoring: freeze inventory
  std::vector<net::Ipv4Addr> roots_;

  // Live per-instance state: always private, never shared across shards.
  HoneypotLogbook logbook_;
  std::vector<std::unique_ptr<dnssrv::AuthoritativeServer>> auth_servers_;
  std::unique_ptr<dnssrv::ObliviousProxy> oblivious_proxy_;
  std::map<std::string, std::unique_ptr<dnssrv::RecursiveResolver>> resolvers_;
  std::vector<std::string> resolver_names_;
  std::vector<std::unique_ptr<HoneypotServer>> honeypot_servers_;
  std::map<int, std::unique_ptr<WebSiteServer>> web_servers_;
};

}  // namespace shadowprobe::core
