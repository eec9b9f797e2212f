#include "dnssrv/resolver.h"

#include "common/log.h"
#include "net/tls.h"
#include "sim/udp_util.h"

namespace shadowprobe::dnssrv {

namespace {
constexpr int kMaxReferrals = 12;
constexpr std::uint32_t kNegativeTtl = 300;
}  // namespace

RecursiveResolver::RecursiveResolver(std::string name, std::vector<net::Ipv4Addr> roots,
                                     Rng rng)
    : name_(std::move(name)), roots_(std::move(roots)), rng_(rng),
      qid_rng_(rng_.fork("qid")) {}

void RecursiveResolver::bind(sim::Network& net, sim::NodeId node, net::Ipv4Addr service_addr,
                             net::Ipv4Addr egress_addr) {
  net_ = &net;
  node_ = node;
  service_ = service_addr;
  egress_ = egress_addr;
  net.set_handler(node, this);
}

std::uint16_t RecursiveResolver::fresh_qid() {
  for (;;) {
    auto qid = static_cast<std::uint16_t>(qid_rng_.bits());
    if (tasks_.count(qid) == 0) return qid;
  }
}

void RecursiveResolver::on_datagram(sim::Network& net, sim::NodeId self,
                                    const net::Ipv4Datagram& dgram) {
  (void)net;
  (void)self;
  if (dgram.header.protocol != net::IpProto::kUdp) return;
  auto udp = net::UdpDatagram::decode(BytesView(dgram.payload), dgram.header.src,
                                      dgram.header.dst);
  if (!udp.ok()) return;
  if (udp.value().dst_port == kEncryptedDnsPort) {
    handle_encrypted_query(dgram, udp.value());
    return;
  }
  auto message = net::DnsMessage::decode(BytesView(udp.value().payload));
  if (!message.ok()) return;
  const net::DnsMessage& dns = message.value();
  if (!dns.header.qr && udp.value().dst_port == 53) {
    if (!dns.questions.empty()) handle_client_query(dgram, udp.value(), dns, false);
  } else if (dns.header.qr && udp.value().src_port == 53) {
    handle_upstream_response(udp.value(), dns);
  }
}

void RecursiveResolver::handle_encrypted_query(const net::Ipv4Datagram& dgram,
                                               const net::UdpDatagram& udp) {
  // Encrypted DNS: the payload is an opaque session record wrapping a plain
  // DNS message. On-path observers cannot read it — but this resolver, the
  // terminating party, sees everything (which is why encryption does not
  // blunt destination-side shadowing).
  auto inner = net::tls_opaque_unwrap(BytesView(udp.payload));
  if (!inner.ok()) return;
  auto message = net::DnsMessage::decode(BytesView(inner.value()));
  if (!message.ok() || message.value().header.qr || message.value().questions.empty())
    return;
  handle_client_query(dgram, udp, message.value(), true);
}

void RecursiveResolver::handle_client_query(const net::Ipv4Datagram& dgram,
                                            const net::UdpDatagram& udp,
                                            const net::DnsMessage& query, bool encrypted) {
  ++client_queries_;
  const net::DnsQuestion& question = query.questions.front();
  QueryLogEntry entry{net_->now(), dgram.header.src, dgram.header.dst, question};
  for (const auto& observer : observers_) observer(entry);

  Task task;
  task.encrypted = encrypted;
  task.refresh_budget = quirks_.refresh_on_expiry ? quirks_.refresh_chain_limit : 0;
  task.client = dgram.header.src;
  task.client_port = udp.src_port;
  task.client_qid = query.header.id;
  task.service_addr = dgram.header.dst;
  task.question = question;

  if (auto cached = cache_.get(question.name, question.type, net_->now())) {
    ++cache_hits_;
    respond_to_client(task, cached->negative ? cached->rcode : net::DnsRcode::kNoError,
                      cached->records);
    return;
  }
  start_task(std::move(task));
}

void RecursiveResolver::start_task(Task task) {
  if (task.behavior_seed == 0) {
    // Entity-keyed behaviour: every draw this task will ever make stems
    // from (question name, occurrence) — never from what else the replica
    // happens to be resolving concurrently.
    std::uint32_t use = name_uses_[task.question.name.str()]++;
    task.behavior_seed =
        rng_.derive("task:" + task.question.name.str() + "#" + std::to_string(use))
            .origin_seed();
  }
  Rng root_rng = Rng(task.behavior_seed).derive("root");
  task.current_server = roots_[static_cast<std::size_t>(root_rng.below(roots_.size()))];
  task.referrals = 0;
  task.attempts = 0;
  std::uint16_t qid = fresh_qid();
  task.sport = next_sport_++;
  if (next_sport_ < 40000) next_sport_ = 40000;
  tasks_[qid] = std::move(task);
  send_upstream(qid);
}

void RecursiveResolver::send_upstream(std::uint16_t qid) {
  auto it = tasks_.find(qid);
  if (it == tasks_.end()) return;
  Task& task = it->second;
  ++task.attempts;
  ++upstream_queries_;
  net::DnsMessage query = net::DnsMessage::query(qid, task.question.name,
                                                 task.question.type);
  query.header.rd = false;  // iterative
  query.edns = net::EdnsInfo{};  // advertise EDNS0 (1232-byte answers)
  Bytes wire = query.encode();
  sim::send_udp(*net_, node_, egress_, task.current_server, task.sport, 53,
                BytesView(wire));
  std::uint64_t token = next_token_++;
  task.timeout_token = token;
  net_->loop().schedule(quirks_.upstream_timeout, [this, qid, token] {
    auto timed = tasks_.find(qid);
    if (timed == tasks_.end() || timed->second.timeout_token != token) return;
    if (timed->second.attempts >= quirks_.upstream_attempts) {
      finish_servfail(qid);
    } else {
      send_upstream(qid);
    }
  });
}

void RecursiveResolver::handle_upstream_response(const net::UdpDatagram& udp,
                                                 const net::DnsMessage& response) {
  auto it = tasks_.find(response.header.id);
  if (it == tasks_.end()) return;
  Task& task = it->second;
  if (udp.dst_port != task.sport) return;  // stale or spoof with wrong port
  std::uint16_t qid = it->first;

  if (response.header.rcode == net::DnsRcode::kNxDomain) {
    std::uint32_t ttl = kNegativeTtl;
    for (const auto& rr : response.authorities) {
      if (rr.type == net::DnsType::kSoa) {
        if (const auto* soa = std::get_if<net::SoaData>(&rr.rdata)) {
          ttl = std::min(rr.ttl, soa->minimum);
        }
      }
    }
    cache_.put_negative(task.question.name, task.question.type, net::DnsRcode::kNxDomain,
                        ttl, net_->now());
    finish_answer(qid, response);
    return;
  }
  if (response.header.rcode != net::DnsRcode::kNoError) {
    finish_servfail(qid);
    return;
  }
  if (!response.answers.empty()) {
    std::uint32_t ttl = response.answers.front().ttl;
    cache_.put(task.question.name, task.question.type, response.answers, ttl, net_->now());
    if (quirks_.refresh_on_expiry && task.refresh_budget > 0) {
      net::DnsQuestion question = task.question;
      int budget = task.refresh_budget - 1;
      net_->loop().schedule(static_cast<SimDuration>(ttl) * kSecond,
                            [this, question, budget] {
                              Task refresh;
                              refresh.internal = true;
                              refresh.refresh_budget = budget;
                              refresh.question = question;
                              start_task(std::move(refresh));
                            });
    }
    finish_answer(qid, response);
    return;
  }
  // Referral: follow the first glued NS.
  net::Ipv4Addr next_server;
  bool found = false;
  for (const auto& glue : response.additionals) {
    if (glue.type != net::DnsType::kA) continue;
    if (const auto* addr = std::get_if<net::Ipv4Addr>(&glue.rdata)) {
      next_server = *addr;
      found = true;
      break;
    }
  }
  if (!found || ++task.referrals > kMaxReferrals) {
    // NODATA (authoritative empty answer) resolves to an empty success;
    // a glueless referral is a dead end for this resolver.
    if (response.authorities.size() == 1 &&
        response.authorities.front().type == net::DnsType::kSoa) {
      cache_.put_negative(task.question.name, task.question.type, net::DnsRcode::kNoError,
                          kNegativeTtl, net_->now());
      finish_answer(qid, response);
    } else {
      finish_servfail(qid);
    }
    return;
  }
  task.current_server = next_server;
  task.attempts = 0;
  send_upstream(qid);
}

void RecursiveResolver::finish_answer(std::uint16_t qid, const net::DnsMessage& response) {
  auto it = tasks_.find(qid);
  if (it == tasks_.end()) return;
  Task task = std::move(it->second);
  tasks_.erase(it);
  if (!task.internal) {
    respond_to_client(task, response.header.rcode, response.answers);
  }
  maybe_schedule_requeries(task);
}

void RecursiveResolver::finish_servfail(std::uint16_t qid) {
  auto it = tasks_.find(qid);
  if (it == tasks_.end()) return;
  Task task = std::move(it->second);
  tasks_.erase(it);
  ++servfails_;
  if (!task.internal) respond_to_client(task, net::DnsRcode::kServFail, {});
}

void RecursiveResolver::respond_to_client(const Task& task, net::DnsRcode rcode,
                                          const std::vector<net::DnsRecord>& answers) {
  net::DnsMessage response;
  response.header.id = task.client_qid;
  response.header.qr = true;
  response.header.rd = true;
  response.header.ra = true;
  response.header.rcode = rcode;
  response.questions.push_back(task.question);
  response.answers = answers;
  Bytes wire = response.encode();
  if (task.encrypted) {
    Bytes sealed = net::tls_opaque_record(BytesView(wire));
    sim::send_udp(*net_, node_, task.service_addr, task.client, kEncryptedDnsPort,
                  task.client_port, BytesView(sealed));
  } else {
    sim::send_udp(*net_, node_, task.service_addr, task.client, 53, task.client_port,
                  BytesView(wire));
  }
}

void RecursiveResolver::maybe_schedule_requeries(const Task& task) {
  if (task.internal) return;  // duplicates never spawn more duplicates
  Rng requery_rng = Rng(task.behavior_seed).derive("requery");
  if (quirks_.requery_probability <= 0 || !requery_rng.chance(quirks_.requery_probability))
    return;
  // Duplicate verification queries straight to the last authoritative
  // server — the benign "zombie" repetitions the honeypot sees within a
  // minute of the original resolution.
  for (int i = 0; i < quirks_.requery_count; ++i) {
    SimDuration delay =
        from_seconds(requery_rng.exponential(to_seconds(quirks_.requery_delay_mean)));
    net::DnsQuestion question = task.question;
    net::Ipv4Addr server = task.current_server;
    net_->loop().schedule(delay, [this, question, server] {
      std::uint16_t qid = fresh_qid();
      Task dup;
      dup.internal = true;
      dup.question = question;
      dup.current_server = server;
      dup.sport = next_sport_++;
      // Cap attempts at one: fire-and-forget verification.
      dup.attempts = quirks_.upstream_attempts;
      std::uint64_t token = next_token_++;
      dup.timeout_token = token;
      tasks_[qid] = std::move(dup);
      net::DnsMessage query = net::DnsMessage::query(qid, question.name, question.type);
      query.header.rd = false;
      ++upstream_queries_;
      Bytes wire = query.encode();
      sim::send_udp(*net_, node_, egress_, server, tasks_[qid].sport, 53, BytesView(wire));
      // The response (if any) completes the task; otherwise reap it so the
      // qid space never leaks. The token keeps the reaper off a later task
      // that reused the qid.
      net_->loop().schedule(quirks_.upstream_timeout, [this, qid, token] {
        auto reaped = tasks_.find(qid);
        if (reaped != tasks_.end() && reaped->second.timeout_token == token) {
          tasks_.erase(reaped);
        }
      });
    });
  }
}

}  // namespace shadowprobe::dnssrv
