#include "shadow/prober.h"

#include "common/log.h"
#include "net/http.h"
#include "net/tls.h"
#include "net/udp.h"
#include "sim/udp_util.h"

namespace shadowprobe::shadow {

ProberHost::ProberHost(std::string name, Rng rng, const intel::SignatureDb& signatures)
    : name_(std::move(name)), rng_(rng), qid_rng_(rng_.fork("qid")),
      signatures_(signatures) {}

void ProberHost::bind(sim::Network& net, sim::NodeId node, net::Ipv4Addr addr) {
  net_ = &net;
  node_ = node;
  addr_ = addr;
  tcp_ = std::make_unique<sim::TcpStack>(net, node, rng_.fork("tcp"));
  tcp_->set_on_established([this](const sim::ConnKey& key) {
    const HttpJob* job = jobs_.find(key);
    if (job == nullptr) return;
    if (job->tls) {
      net::TlsClientHello hello;
      for (auto& b : hello.random) b = static_cast<std::uint8_t>(rng_.bits());
      hello.cipher_suites = {0x1301, 0x1302, 0x1303, 0xC02F};
      hello.set_sni(job->domain.str());
      hello.set_supported_versions({0x0304, 0x0303});
      hello.set_alpn({"h2", "http/1.1"});
      Bytes record = hello.encode_record();
      tcp_->send_data(key, BytesView(record));
      ++probes_sent_;
    } else {
      send_next_get(key);
    }
  });
  tcp_->set_on_data([this](const sim::ConnKey& key, BytesView data) {
    (void)data;
    const HttpJob* job = jobs_.find(key);
    if (job == nullptr) return;
    if (job->tls || job->paths.empty()) {
      // ServerHello received, or final HTTP response: done probing.
      jobs_.erase(key);
      tcp_->close(key);
      return;
    }
    send_next_get(key);
  });
  tcp_->set_on_reset([this](const sim::ConnKey& key, bool) { jobs_.erase(key); });
  net.set_handler(node, this);
}

void ProberHost::probe_dns(const net::DnsName& domain, net::Ipv4Addr resolver) {
  resolve(domain, resolver, Purpose::kDnsOnly, 0);
}

void ProberHost::probe_http(const net::DnsName& domain, net::Ipv4Addr resolver,
                            int path_count) {
  resolve(domain, resolver, Purpose::kHttp, path_count);
}

void ProberHost::probe_https(const net::DnsName& domain, net::Ipv4Addr resolver) {
  resolve(domain, resolver, Purpose::kHttps, 0);
}

void ProberHost::send_query(std::uint16_t qid, const net::DnsName& domain,
                            net::Ipv4Addr server, bool recursive) {
  net::DnsMessage query = net::DnsMessage::query(qid, domain, net::DnsType::kA);
  query.header.rd = recursive;
  Bytes wire = query.encode();
  sim::send_udp(*net_, node_, addr_, server, dns_sport_, 53, BytesView(wire));
  ++probes_sent_;
}

void ProberHost::resolve(const net::DnsName& domain, net::Ipv4Addr resolver,
                         Purpose purpose, int path_count) {
  std::uint16_t qid;
  do {
    qid = static_cast<std::uint16_t>(qid_rng_.bits());
  } while (lookups_.contains(qid));
  std::uint64_t token = next_lookup_token_++;
  PendingLookup lookup{domain, purpose, path_count, /*iterative=*/false, 0, token};
  net::Ipv4Addr server = resolver;
  // Behaviour keyed by (domain, occurrence): whether this probe walks the
  // tree itself is a property of the probe, not of the prober's history.
  Rng job_rng = rng_.derive("job:" + domain.str() + "#" +
                            std::to_string(domain_uses_[domain.str()]++));
  // Only pure DNS probes go iterative; HTTP(S) jobs need an answer and use
  // the configured public resolver.
  if (purpose == Purpose::kDnsOnly && !roots_.empty() &&
      job_rng.chance(direct_probability_)) {
    lookup.iterative = true;
    server = roots_[static_cast<std::size_t>(job_rng.below(roots_.size()))];
  }
  bool recursive = !lookup.iterative;
  lookups_[qid] = std::move(lookup);
  send_query(qid, domain, server, recursive);
  // Reap abandoned lookups (unreachable server, SERVFAIL never sent). An
  // answered lookup frees its qid at once, so by now the qid may name a
  // later lookup; the token leaves that one alone.
  net_->loop().schedule(30 * kSecond, [this, qid, token] {
    const PendingLookup* pending = lookups_.find(qid);
    if (pending != nullptr && pending->token == token) lookups_.erase(qid);
  });
}

void ProberHost::on_datagram(sim::Network& net, sim::NodeId self,
                             const net::Ipv4Datagram& dgram) {
  (void)net;
  (void)self;
  if (dgram.header.protocol == net::IpProto::kTcp) {
    tcp_->on_segment(dgram);
    return;
  }
  if (dgram.header.protocol != net::IpProto::kUdp) return;
  auto udp = net::UdpDatagram::decode(BytesView(dgram.payload), dgram.header.src,
                                      dgram.header.dst);
  if (!udp.ok() || udp.value().src_port != 53) return;
  auto response = net::DnsMessage::decode(BytesView(udp.value().payload));
  if (!response.ok() || !response.value().header.qr) return;
  std::uint16_t qid = response.value().header.id;
  PendingLookup* pending = lookups_.find(qid);
  if (pending == nullptr) return;
  // Iterative walks follow glued referrals until an answer arrives.
  if (pending->iterative && response.value().answers.empty()) {
    for (const auto& glue : response.value().additionals) {
      if (glue.type != net::DnsType::kA) continue;
      if (const auto* a = std::get_if<net::Ipv4Addr>(&glue.rdata)) {
        if (++pending->referrals > 8) break;
        send_query(qid, pending->domain, *a, /*recursive=*/false);
        return;
      }
    }
  }
  PendingLookup lookup = std::move(*pending);
  lookups_.erase(qid);
  if (lookup.purpose == Purpose::kDnsOnly) return;  // the query itself was the probe
  for (const auto& rr : response.value().answers) {
    if (rr.type != net::DnsType::kA) continue;
    if (const auto* a = std::get_if<net::Ipv4Addr>(&rr.rdata)) {
      on_resolved(lookup, *a);
      return;
    }
  }
}

void ProberHost::on_resolved(const PendingLookup& lookup, net::Ipv4Addr address) {
  if (lookup.purpose == Purpose::kHttp) {
    start_http(lookup.domain, address, lookup.path_count);
  } else if (lookup.purpose == Purpose::kHttps) {
    start_https(lookup.domain, address);
  }
}

std::vector<std::string> ProberHost::sample_paths(const net::DnsName& domain, int count) {
  // Mostly directory enumeration, a benign homepage fetch leading — the mix
  // the paper's payload analysis reports (>=90-95% enumeration, the rest
  // benign, zero exploit payloads). Keyed by the probed domain so the path
  // choice is independent of this prober's other jobs.
  Rng path_rng = rng_.derive("paths:" + domain.str() + "#" +
                             std::to_string(path_uses_[domain.str()]++));
  std::vector<std::string> paths;
  if (count <= 0) count = 1;
  paths.reserve(static_cast<std::size_t>(count));
  if (path_rng.chance(0.4)) paths.push_back("/");
  const auto& wordlist = signatures_.enumeration_paths();
  while (paths.size() < static_cast<std::size_t>(count)) {
    paths.push_back(path_rng.pick(wordlist));
  }
  return paths;
}

void ProberHost::start_http(const net::DnsName& domain, net::Ipv4Addr address,
                            int path_count) {
  sim::ConnKey key = tcp_->connect(addr_, address, 80);
  jobs_[key] = HttpJob{domain, sample_paths(domain, path_count), /*tls=*/false};
}

void ProberHost::start_https(const net::DnsName& domain, net::Ipv4Addr address) {
  sim::ConnKey key = tcp_->connect(addr_, address, 443);
  jobs_[key] = HttpJob{domain, {}, /*tls=*/true};
}

void ProberHost::send_next_get(const sim::ConnKey& key) {
  HttpJob* found = jobs_.find(key);
  if (found == nullptr) return;
  HttpJob& job = *found;
  if (job.paths.empty()) {
    jobs_.erase(key);
    tcp_->close(key);
    return;
  }
  std::string path = job.paths.front();
  job.paths.erase(job.paths.begin());
  net::HttpRequest request;
  request.method = "GET";
  request.target = path;
  request.headers.add("Host", job.domain.str());
  request.headers.add("User-Agent", "Mozilla/5.0 (compatible; probe)");
  request.headers.add("Accept", "*/*");
  Bytes wire = request.encode();
  tcp_->send_data(key, BytesView(wire));
  ++probes_sent_;
}

}  // namespace shadowprobe::shadow
