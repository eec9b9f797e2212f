// ProberHost behaviour against a real testbed: DNS probes via resolver and
// via direct iterative resolution, HTTP path enumeration, HTTPS SNI probes.
#include "shadow/prober.h"

#include <gtest/gtest.h>

#include <map>

#include "core/testbed.h"

namespace shadowprobe::shadow {
namespace {

class ProberTest : public ::testing::Test {
 protected:
  ProberTest() {
    core::TestbedConfig config;
    config.topology.seed = 11;
    config.topology.global_vps = 2;
    config.topology.cn_vps = 2;
    config.topology.web_sites = 4;
    bed = core::Testbed::create(config);
    prober = std::make_unique<ProberHost>("p", bed->fork_rng("p"), bed->signatures());
    sim::NodeId node = bed->add_host_in_as(16509, "p", prober.get());
    prober->bind(bed->net(), node, bed->net().address(node));
  }

  core::DecoyId decoy_id() {
    core::DecoyId id;
    id.vp = net::Ipv4Addr(30, 0, 0, 1);
    id.dst = net::Ipv4Addr(8, 8, 8, 8);
    id.seq = 77;
    return id;
  }

  std::size_t hits_of(core::RequestProtocol protocol) {
    std::size_t n = 0;
    for (const auto& hit : bed->logbook().hits()) {
      if (hit.protocol == protocol) ++n;
    }
    return n;
  }

  std::unique_ptr<core::Testbed> bed;
  std::unique_ptr<ProberHost> prober;
};

TEST_F(ProberTest, DnsProbeViaResolverReachesHoneypotFromResolverEgress) {
  net::DnsName domain = core::decoy_domain(decoy_id());
  prober->probe_dns(domain, net::Ipv4Addr(8, 8, 8, 8));
  bed->loop().run_until(kMinute);
  ASSERT_EQ(bed->logbook().size(), 1u);
  const auto& hit = bed->logbook().hits()[0];
  EXPECT_EQ(hit.protocol, core::RequestProtocol::kDns);
  // Origin is Google's egress, not the prober.
  EXPECT_EQ(bed->topology().geo().asn(hit.origin), 15169u);
  ASSERT_TRUE(hit.decoy.has_value());
  EXPECT_EQ(hit.decoy->seq, 77u);
}

TEST_F(ProberTest, DirectDnsProbeOriginatesFromProberItself) {
  prober->set_root_hints(bed->root_hints());
  prober->set_direct_probability(1.0);
  net::DnsName domain = core::decoy_domain(decoy_id());
  prober->probe_dns(domain, net::Ipv4Addr(8, 8, 8, 8));
  bed->loop().run_until(kMinute);
  ASSERT_EQ(bed->logbook().size(), 1u);
  EXPECT_EQ(bed->logbook().hits()[0].origin, prober->addr());
}

TEST_F(ProberTest, HttpProbeEnumeratesPaths) {
  net::DnsName domain = core::decoy_domain(decoy_id());
  prober->probe_http(domain, net::Ipv4Addr(8, 8, 8, 8), 4);
  bed->loop().run_until(kMinute);
  // Resolution + 4 GETs: the honeypot logs 4 HTTP hits bearing the decoy.
  EXPECT_EQ(hits_of(core::RequestProtocol::kHttp), 4u);
  for (const auto& hit : bed->logbook().hits()) {
    if (hit.protocol != core::RequestProtocol::kHttp) continue;
    EXPECT_TRUE(hit.decoy.has_value());
    EXPECT_FALSE(hit.http_target.empty());
  }
}

TEST_F(ProberTest, HttpsProbeDeliversSni) {
  net::DnsName domain = core::decoy_domain(decoy_id());
  prober->probe_https(domain, net::Ipv4Addr(8, 8, 8, 8));
  bed->loop().run_until(kMinute);
  EXPECT_EQ(hits_of(core::RequestProtocol::kHttps), 1u);
}

TEST_F(ProberTest, UnresolvableDomainProducesNoWebProbe) {
  auto domain = net::DnsName::must_parse("does-not-exist.nowhere.org");
  prober->probe_http(domain, net::Ipv4Addr(8, 8, 8, 8), 3);
  bed->loop().run_until(kMinute);
  EXPECT_EQ(hits_of(core::RequestProtocol::kHttp), 0u);
}

TEST_F(ProberTest, ProbesCounted) {
  net::DnsName domain = core::decoy_domain(decoy_id());
  prober->probe_dns(domain, net::Ipv4Addr(8, 8, 8, 8));
  prober->probe_https(domain, net::Ipv4Addr(8, 8, 8, 8));
  bed->loop().run_until(kMinute);
  EXPECT_GE(prober->probes_sent(), 3u);  // 2 lookups + 1 ClientHello
}

TEST_F(ProberTest, ReusedQidSurvivesTheEarlierLookupsReaper) {
  // Each lookup's qid is the next draw of the prober's fork("qid") stream,
  // skipping qids still pending. Replay that stream to find its first
  // repeat: lookup `late` draws the qid lookup `early` used.
  const std::uint64_t seed = 20240301;
  Rng qids = Rng(seed).fork("qid");
  std::map<std::uint16_t, std::size_t> first_use;
  std::size_t early = 0;
  std::size_t late = 0;
  for (std::size_t i = 0;; ++i) {
    auto qid = static_cast<std::uint16_t>(qids.bits());
    auto [it, fresh] = first_use.emplace(qid, i);
    if (!fresh) {
      early = it->second;
      late = i;
      break;
    }
  }

  ProberHost reuser("reuser", Rng(seed), bed->signatures());
  sim::NodeId node = bed->add_host_in_as(16509, "reuser", &reuser);
  reuser.bind(bed->net(), node, bed->net().address(node));
  const net::Ipv4Addr google(8, 8, 8, 8);
  auto domain = [](std::uint32_t seq) {
    core::DecoyId id;
    id.vp = net::Ipv4Addr(30, 0, 0, 1);
    id.dst = net::Ipv4Addr(8, 8, 8, 8);
    id.seq = seq;
    return core::decoy_domain(id);
  };
  // Lookups [0, early] at t=0, all answered well before their 30 s reapers;
  // the answers free their qids.
  for (std::size_t i = 0; i <= early; ++i) reuser.probe_dns(domain(100), google);
  const SimTime reap = 30 * kSecond;
  bed->loop().run_until(reap - kMillisecond);
  ASSERT_EQ(hits_of(core::RequestProtocol::kHttp), 0u);
  // Lookups (early, late) keep their own qids; lookup `late` reuses early's
  // qid one millisecond before early's reaper fires, and its answer comes
  // back after it.
  for (std::size_t i = early + 1; i < late; ++i) reuser.probe_dns(domain(100), google);
  reuser.probe_http(domain(200), google, 1);
  bed->loop().run_until(reap + kMinute);
  EXPECT_EQ(hits_of(core::RequestProtocol::kHttp), 1u)
      << "the HTTP probe behind reused qid (lookups " << early << " and " << late
      << ") lost its answer";
}

}  // namespace
}  // namespace shadowprobe::shadow
