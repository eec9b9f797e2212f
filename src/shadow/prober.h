// Prober hosts: the machines that *emit* unsolicited requests.
//
// An exhibitor's retention store is processed by a fleet of probers spread
// over one or more origin ASes (the paper finds origins in ISP networks,
// cloud platforms, and behind popular public resolvers — and a sizable
// share of origin addresses on IP blocklists). A prober executes three job
// kinds against an observed domain, all with real packets:
//
//   - DNS:   re-query the name via a configured public resolver (Google by
//            preference, per Figure 6),
//   - HTTP:  resolve the name, then GET a handful of paths — mostly
//            directory enumeration (Section 5's "95% path enumeration"),
//   - HTTPS: resolve, then open a TLS handshake with the name in SNI.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/flat_map.h"
#include "common/rng.h"
#include "intel/signatures.h"
#include "net/dns.h"
#include "sim/network.h"
#include "sim/tcp_stack.h"

namespace shadowprobe::shadow {

class ProberHost : public sim::DatagramHandler {
 public:
  ProberHost(std::string name, Rng rng, const intel::SignatureDb& signatures);

  void bind(sim::Network& net, sim::NodeId node, net::Ipv4Addr addr);

  /// Root-server hint addresses enabling *direct* (iterative) lookups: the
  /// prober then sometimes walks root -> TLD -> authoritative itself, so
  /// the honeypot sees the prober's own address as the query origin (the
  /// paper's Figure 6 origin-AS diversity and its blocklisted DNS origins
  /// both come from such stub probers).
  void set_root_hints(std::vector<net::Ipv4Addr> roots) { roots_ = std::move(roots); }
  /// Share of DNS probes performed iteratively (0 = always via resolver).
  void set_direct_probability(double p) noexcept { direct_probability_ = p; }

  /// Queries `resolver` for the domain (an unsolicited DNS request arrives
  /// at the honeypot authoritative server from the resolver's egress).
  void probe_dns(const net::DnsName& domain, net::Ipv4Addr resolver);

  /// Resolves the domain via `resolver`, then issues `path_count` GET
  /// requests against the first resolved address with Host = domain.
  void probe_http(const net::DnsName& domain, net::Ipv4Addr resolver, int path_count);

  /// Resolves the domain, then opens a TLS handshake with SNI = domain.
  void probe_https(const net::DnsName& domain, net::Ipv4Addr resolver);

  void on_datagram(sim::Network& net, sim::NodeId self,
                   const net::Ipv4Datagram& dgram) override;

  [[nodiscard]] net::Ipv4Addr addr() const noexcept { return addr_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t probes_sent() const noexcept { return probes_sent_; }

 private:
  enum class Purpose { kDnsOnly, kHttp, kHttps };

  struct PendingLookup {
    net::DnsName domain;
    Purpose purpose = Purpose::kDnsOnly;
    int path_count = 0;
    bool iterative = false;
    int referrals = 0;
    /// Identifies this lookup to its reaper: the qid alone may already
    /// belong to a later lookup when the reaper fires.
    std::uint64_t token = 0;
  };

  struct HttpJob {
    net::DnsName domain;
    std::vector<std::string> paths;  // remaining GETs on this connection
    bool tls = false;
  };

  void resolve(const net::DnsName& domain, net::Ipv4Addr resolver, Purpose purpose,
               int path_count);
  void send_query(std::uint16_t qid, const net::DnsName& domain, net::Ipv4Addr server,
                  bool recursive);
  void on_resolved(const PendingLookup& lookup, net::Ipv4Addr address);
  void start_http(const net::DnsName& domain, net::Ipv4Addr address, int path_count);
  void start_https(const net::DnsName& domain, net::Ipv4Addr address);
  void send_next_get(const sim::ConnKey& key);
  std::vector<std::string> sample_paths(const net::DnsName& domain, int count);

  std::string name_;
  Rng rng_;
  Rng qid_rng_;  // DNS query ids: non-behavioural, stays a sequential stream
  /// Per-domain probe counters keying the behavioural streams: a probe's
  /// randomness depends on (domain, occurrence), never on what else this
  /// prober is doing — the invariant sharded campaigns rely on.
  std::map<std::string, std::uint32_t> domain_uses_;
  std::map<std::string, std::uint32_t> path_uses_;
  const intel::SignatureDb& signatures_;
  sim::Network* net_ = nullptr;
  sim::NodeId node_ = sim::kInvalidNode;
  net::Ipv4Addr addr_;
  std::unique_ptr<sim::TcpStack> tcp_;
  FlatMap<std::uint16_t, PendingLookup> lookups_;  // by DNS query id
  std::uint64_t next_lookup_token_ = 1;
  std::vector<net::Ipv4Addr> roots_;
  double direct_probability_ = 0.0;
  FlatMap<sim::ConnKey, HttpJob> jobs_;
  std::uint16_t dns_sport_ = 33000;
  std::uint64_t probes_sent_ = 0;
};

}  // namespace shadowprobe::shadow
