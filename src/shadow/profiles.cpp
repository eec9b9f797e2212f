#include "shadow/profiles.h"

#include "common/strutil.h"

namespace shadowprobe::shadow {

namespace {

const net::Ipv4Addr kGoogleDns(8, 8, 8, 8);

/// Builds a prober fleet spread over `origin_ases`, registering a share of
/// the addresses on the testbed blocklist (synthetic Spamhaus reputation).
std::vector<std::unique_ptr<ProberHost>> make_fleet(core::Testbed& bed,
                                                    const std::string& label,
                                                    const std::vector<std::uint32_t>& ases,
                                                    int size, double blocklisted_fraction,
                                                    Rng& rng) {
  std::vector<std::unique_ptr<ProberHost>> fleet;
  for (int i = 0; i < size; ++i) {
    std::uint32_t asn = ases[static_cast<std::size_t>(i) % ases.size()];
    std::string name = strprintf("prober-%s-%d", label.c_str(), i);
    auto prober = std::make_unique<ProberHost>(name, rng.fork(name), bed.signatures());
    sim::NodeId node = bed.add_host_in_as(asn, name, prober.get());
    prober->bind(bed.net(), node, bed.net().address(node));
    // The chance() draw must happen in frozen replicas too — skipping it
    // would shift every later draw of this fleet's stream off the
    // authoring run (note_blocklisted itself no-ops when frozen).
    if (rng.chance(blocklisted_fraction)) bed.note_blocklisted(prober->addr());
    fleet.push_back(std::move(prober));
  }
  return fleet;
}

struct ExhibitorSpec {
  ExhibitorConfig config;
  std::vector<std::uint32_t> fleet_ases;
  double blocklisted_fraction = 0.0;
  /// Share of the fleet's DNS probes done as direct iterative lookups
  /// (origin = the prober itself instead of Google's egress).
  double direct_dns_probability = 0.35;
};

DeployedExhibitor instantiate(core::Testbed& bed, const std::string& label,
                              ExhibitorSpec spec, const ShadowConfig& shadow_config,
                              Rng& rng) {
  (void)rng;
  // Every stream below derives from (master seed, label): deployments are
  // reproducible and independent of instantiation order.
  Rng own(bed.config().topology.seed ^ fnv1a("exhibitor-" + label));
  DeployedExhibitor deployed;
  deployed.label = label;
  spec.config.probe_resolver = kGoogleDns;
  deployed.exhibitor = std::make_unique<Exhibitor>(std::move(spec.config),
                                                   own.fork("ex"), bed.loop());
  // Two sub-fleets: web probers (scanning proxies, heavily blocklisted)
  // and lookup probers (mostly clean — the paper's 5.2% DNS-origin rate).
  int web_size = std::max(1, shadow_config.fleet_size / 2);
  int dns_size = std::max(1, shadow_config.fleet_size - web_size);
  auto web_fleet = make_fleet(bed, label + "-web", spec.fleet_ases, web_size,
                              spec.blocklisted_fraction, own);
  auto dns_fleet = make_fleet(bed, label + "-dns", spec.fleet_ases, dns_size,
                              shadow_config.dns_prober_blocklisted, own);
  for (auto& prober : web_fleet) {
    prober->set_root_hints(bed.root_hints());
    prober->set_direct_probability(spec.direct_dns_probability);
    deployed.exhibitor->add_prober(prober.get(), /*web_role=*/true);
    deployed.probers.push_back(std::move(prober));
  }
  for (auto& prober : dns_fleet) {
    prober->set_root_hints(bed.root_hints());
    prober->set_direct_probability(spec.direct_dns_probability);
    deployed.exhibitor->add_prober(prober.get(), /*web_role=*/false);
    deployed.probers.push_back(std::move(prober));
  }
  return deployed;
}

// -- destination-side DNS shadowers (Resolver_h) ------------------------------

ExhibitorSpec yandex_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "Yandex";
  spec.config.observe_probability = 0.995;
  spec.config.sees_http = spec.config.sees_tls = false;
  // Re-lookups spread from minutes to days.
  spec.config.waves.push_back({.probability = 0.95,
                               .delay_median = 6 * kHour,
                               .delay_sigma = 2.2,
                               .requests_min = 2,
                               .requests_max = 4,
                               .dns_weight = 1.0});
  // Same/next-day HTTP(S) probing of ~half the observed names.
  spec.config.waves.push_back({.probability = 0.25,
                               .delay_median = 36 * kHour,
                               .delay_sigma = 1.2,
                               .delay_floor = kHour,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 0.0,
                               .http_weight = 0.6,
                               .https_weight = 0.4,
                               .http_paths = 3});
  // Long-retention wave: ~40% of names re-probed around the 10-day mark.
  spec.config.waves.push_back({.probability = 0.48,
                               .delay_median = 14 * kDay,
                               .delay_sigma = 0.4,
                               .delay_floor = kHour,
                               .requests_min = 1,
                               .requests_max = 1,
                               .dns_weight = 0.0,
                               .http_weight = 0.5,
                               .https_weight = 0.5,
                               .http_paths = 3});
  spec.fleet_ases = {13238, 9009, 14061};
  spec.blocklisted_fraction = sc.web_prober_blocklisted;
  return spec;
}

ExhibitorSpec dns114_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "114DNS-CN";
  spec.config.observe_probability = 0.97;
  spec.config.sees_http = spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.90,
                               .delay_median = 30 * kMinute,
                               .delay_sigma = 1.6,
                               .requests_min = 3,
                               .requests_max = 6,
                               .dns_weight = 1.0});
  spec.config.waves.push_back({.probability = 0.50,
                               .delay_median = 20 * kHour,
                               .delay_sigma = 1.1,
                               .delay_floor = kHour,
                               .requests_min = 1,
                               .requests_max = 3,
                               .dns_weight = 0.0,
                               .http_weight = 0.55,
                               .https_weight = 0.45,
                               .http_paths = 4});
  // Passive-DNS-fed security analysis: origins across 4 CN ASes (ISPs and
  // cloud), per Figure 6.
  spec.fleet_ases = {4134, 4837, 9808, 23724};
  spec.blocklisted_fraction = sc.web_prober_blocklisted;
  return spec;
}

ExhibitorSpec onedns_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "One DNS";
  spec.config.observe_probability = 0.80;
  spec.config.sees_http = spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.90,
                               .delay_median = 18 * kHour,
                               .delay_sigma = 1.4,
                               .requests_min = 2,
                               .requests_max = 5,
                               .dns_weight = 1.0});
  spec.config.waves.push_back({.probability = 0.20,
                               .delay_median = 2 * kDay,
                               .delay_sigma = 0.8,
                               .delay_floor = kHour,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 0.0,
                               .http_weight = 0.7,
                               .https_weight = 0.3,
                               .http_paths = 4});
  spec.fleet_ases = {23724, 45090};
  spec.blocklisted_fraction = sc.web_prober_blocklisted * 0.6;
  return spec;
}

ExhibitorSpec dnspai_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "DNS PAI";
  spec.config.observe_probability = 0.60;
  spec.config.sees_http = spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.85,
                               .delay_median = 20 * kHour,
                               .delay_sigma = 1.2,
                               .requests_min = 2,
                               .requests_max = 4,
                               .dns_weight = 1.0});
  spec.fleet_ases = {4134, 45090};
  spec.blocklisted_fraction = sc.dns_prober_blocklisted;
  return spec;
}

ExhibitorSpec vercara_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "VERCARA";
  spec.config.observe_probability = 0.50;
  spec.config.sees_http = spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.90,
                               .delay_median = 2 * kHour,
                               .delay_sigma = 1.0,
                               .requests_min = 2,
                               .requests_max = 4,
                               .dns_weight = 1.0});
  spec.fleet_ases = {16509, 3356};
  spec.blocklisted_fraction = sc.dns_prober_blocklisted;
  return spec;
}

// -- on-wire observers --------------------------------------------------------

ExhibitorSpec cn_http_wire_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "CN-DPI-HTTP";
  spec.config.observe_probability = 0.07;
  spec.config.sees_dns = false;
  spec.config.sees_tls = false;
  // Short retention on routing devices (Figure 7): mostly minutes to hours.
  spec.config.waves.push_back({.probability = 0.90,
                               .delay_median = 15 * kMinute,
                               .delay_sigma = 1.6,
                               .requests_min = 1,
                               .requests_max = 3,
                               .dns_weight = 0.17,
                               .http_weight = 0.66,
                               .https_weight = 0.17,
                               .http_paths = 6});
  spec.fleet_ases = {4134, 140292};  // 85% of origins in local ISPs
  spec.blocklisted_fraction = sc.web_prober_blocklisted * 0.8;
  return spec;
}

ExhibitorSpec cn_tls_wire_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "CN-DPI-TLS";
  spec.config.observe_probability = 0.035;
  spec.config.sees_dns = false;
  spec.config.sees_http = false;
  spec.config.waves.push_back({.probability = 0.85,
                               .delay_median = 40 * kMinute,
                               .delay_sigma = 1.4,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 0.3,
                               .http_weight = 0.2,
                               .https_weight = 0.5,
                               .http_paths = 4});
  spec.fleet_ases = {4134, 4812};
  spec.blocklisted_fraction = sc.web_prober_blocklisted;
  return spec;
}

ExhibitorSpec provincial_wire_spec(const std::string& name, std::uint32_t asn,
                                   const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = name;
  spec.config.observe_probability = 0.06;
  spec.config.sees_dns = false;
  spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.85,
                               .delay_median = 30 * kMinute,
                               .delay_sigma = 1.3,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 0.4,
                               .http_weight = 0.5,
                               .https_weight = 0.1,
                               .http_paths = 5});
  spec.fleet_ases = {asn};
  spec.blocklisted_fraction = sc.web_prober_blocklisted * 0.6;
  return spec;
}

/// AS40444 / AS29988: every observed HTTP decoy produces unsolicited DNS
/// queries from the observer's own network (Section 5.2).
ExhibitorSpec dns_only_wire_spec(const std::string& name, std::uint32_t asn,
                                 const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = name;
  spec.config.observe_probability = 0.85;
  spec.config.sees_dns = false;
  spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 1.0,
                               .delay_median = 5 * kMinute,
                               .delay_sigma = 0.8,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 1.0});
  spec.fleet_ases = {asn};
  spec.blocklisted_fraction = sc.dns_prober_blocklisted;
  return spec;
}

/// The thin tail of on-wire *DNS* observers (Table 3's DNS section:
/// HostRoyale, China Unicom Beijing, Zenlayer — 0.3% of DNS shadowing).
ExhibitorSpec dns_wire_misc_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "wire-dns-misc";
  spec.config.observe_probability = 0.008;
  spec.config.sees_http = spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.9,
                               .delay_median = 10 * kMinute,
                               .delay_sigma = 1.0,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 1.0});
  spec.fleet_ases = {203020, 4808, 21859};
  spec.blocklisted_fraction = sc.dns_prober_blocklisted;
  return spec;
}

ExhibitorSpec ad_wire_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "AD-observer";
  spec.config.observe_probability = 0.50;
  spec.config.sees_dns = false;
  spec.config.waves.push_back({.probability = 0.85,
                               .delay_median = 1 * kHour,
                               .delay_sigma = 1.2,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 0.3,
                               .http_weight = 0.5,
                               .https_weight = 0.2,
                               .http_paths = 4});
  spec.fleet_ases = {9009};
  spec.blocklisted_fraction = sc.web_prober_blocklisted * 0.5;
  return spec;
}

ExhibitorSpec tls_destination_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "tls-destination-operators";
  spec.config.observe_probability = 0.55;
  spec.config.sees_dns = false;
  spec.config.sees_http = false;
  // Destination servers keep data longer than routers (Figure 7).
  spec.config.waves.push_back({.probability = 0.9,
                               .delay_median = 8 * kHour,
                               .delay_sigma = 1.5,
                               .requests_min = 1,
                               .requests_max = 3,
                               .dns_weight = 0.4,
                               .http_weight = 0.1,
                               .https_weight = 0.5,
                               .http_paths = 4});
  spec.fleet_ases = {16509, 8075};
  spec.blocklisted_fraction = sc.web_prober_blocklisted * 0.7;
  return spec;
}

ExhibitorSpec http_destination_spec(const ShadowConfig& sc) {
  ExhibitorSpec spec;
  spec.config.name = "http-destination-operators";
  spec.config.observe_probability = 0.35;
  spec.config.sees_dns = false;
  spec.config.sees_tls = false;
  spec.config.waves.push_back({.probability = 0.9,
                               .delay_median = 6 * kHour,
                               .delay_sigma = 1.2,
                               .requests_min = 1,
                               .requests_max = 2,
                               .dns_weight = 0.5,
                               .http_weight = 0.5,
                               .https_weight = 0.0,
                               .http_paths = 3});
  spec.fleet_ases = {16509};
  spec.blocklisted_fraction = sc.web_prober_blocklisted * 0.5;
  return spec;
}

void attach_resolver_hook(core::Testbed& bed, const std::string& resolver_name,
                          Exhibitor& exhibitor) {
  dnssrv::RecursiveResolver* resolver = bed.resolver(resolver_name);
  if (resolver == nullptr) return;
  resolver->add_client_query_observer([&exhibitor](const dnssrv::QueryLogEntry& entry) {
    exhibitor.observe(entry.time, entry.question.name, entry.client, entry.server_addr,
                      core::DecoyProtocol::kDns);
  });
}

void attach_tap(core::Testbed& bed, DeployedExhibitor& deployed, sim::NodeId router,
                WireTap::Filter filter, ShadowDeployment& out) {
  auto tap = std::make_unique<WireTap>(*deployed.exhibitor, filter);
  bed.net().add_tap(router, tap.get());
  deployed.taps.push_back(std::move(tap));
  deployed.tap_nodes.push_back(router);
  net::Ipv4Addr addr = bed.net().address(router);
  if (filter.dns) out.wire_observer_addrs_dns.insert(addr);
  if (filter.http) out.wire_observer_addrs_http.insert(addr);
  if (filter.tls) out.wire_observer_addrs_tls.insert(addr);
}

}  // namespace

std::set<net::Ipv4Addr> ShadowDeployment::all_wire_observer_addrs() const {
  std::set<net::Ipv4Addr> all = wire_observer_addrs_dns;
  all.insert(wire_observer_addrs_http.begin(), wire_observer_addrs_http.end());
  all.insert(wire_observer_addrs_tls.begin(), wire_observer_addrs_tls.end());
  return all;
}

const DeployedExhibitor* ShadowDeployment::find(const std::string& label) const {
  for (const auto& e : exhibitors) {
    if (e.label == label) return &e;
  }
  return nullptr;
}

ShadowDeployment deploy_standard_exhibitors(core::Testbed& bed, const ShadowConfig& config) {
  ShadowDeployment out;
  // Label-stable stream: derived from the master seed only, so toggling one
  // exhibitor class never perturbs another's randomness (ablation runs stay
  // comparable).
  Rng rng(bed.config().topology.seed ^ fnv1a("shadow-deployment"));
  const topo::Topology& topo = bed.topology();

  if (config.resolver_shadowing) {
    struct ResolverPlan {
      const char* resolver;  // testbed resolver instance to hook
      const char* truth;     // Resolver_h member name
      ExhibitorSpec spec;
    };
    std::vector<ResolverPlan> plans;
    plans.push_back({"Yandex", "Yandex", yandex_spec(config)});
    plans.push_back({"114DNS", "114DNS", dns114_spec(config)});  // CN instance only
    plans.push_back({"One DNS", "One DNS", onedns_spec(config)});
    plans.push_back({"DNS PAI", "DNS PAI", dnspai_spec(config)});
    plans.push_back({"VERCARA", "VERCARA", vercara_spec(config)});
    for (auto& plan : plans) {
      DeployedExhibitor deployed =
          instantiate(bed, std::string("resolver:") + plan.truth, std::move(plan.spec),
                      config, rng);
      attach_resolver_hook(bed, plan.resolver, *deployed.exhibitor);
      out.shadowing_resolvers.insert(plan.truth);
      out.exhibitors.push_back(std::move(deployed));
    }
  }

  if (config.wire_http_observers) {
    // CHINANET backbone: taps on every province aggregation router plus the
    // national gateway — the heaviest observer of Table 3.
    DeployedExhibitor cn = instantiate(bed, "wire:AS4134", cn_http_wire_spec(config),
                                       config, rng);
    WireTap::Filter http_only{.dns = false, .http = true, .tls = false};
    for (const auto& province : topo::cn_provinces()) {
      sim::NodeId agg = topo.province_aggregation(province);
      if (agg != sim::kInvalidNode) attach_tap(bed, cn, agg, http_only, out);
    }
    attach_tap(bed, cn, topo.national_gateway("CN"), http_only, out);
    out.exhibitors.push_back(std::move(cn));

    // Provincial ISP observers (Table 3's Hubei / Jiangsu rows).
    struct Provincial {
      const char* name;
      std::uint32_t asn;
    };
    for (const auto& p : std::vector<Provincial>{{"wire:AS58563", 58563},
                                                 {"wire:AS137697", 137697},
                                                 {"wire:AS23650", 23650},
                                                 {"wire:AS4812", 4812}}) {
      const topo::AsRecord* as = topo.as_by_number(p.asn);
      if (as == nullptr) continue;
      DeployedExhibitor deployed =
          instantiate(bed, p.name, provincial_wire_spec(p.name, p.asn, config), config, rng);
      attach_tap(bed, deployed, as->border, http_only, out);
      out.exhibitors.push_back(std::move(deployed));
    }

    // The long tail of provincial DPI deployments: every other CN province
    // gets a low-intensity HTTP observer at its provincial ISP border — the
    // bulk of the paper's 448 CN observer addresses.
    {
      ExhibitorSpec tail_spec = provincial_wire_spec("CN-provincial-tail", 4134, config);
      tail_spec.config.observe_probability = 0.04;
      DeployedExhibitor tail =
          instantiate(bed, "wire:CN-provincial-tail", std::move(tail_spec), config, rng);
      std::set<std::uint32_t> named = {58563, 137697, 23650, 4812};
      for (const auto& as : topo.ases()) {
        if (as.country != "CN" || as.subdivision.empty() ||
            as.type != intel::PrefixType::kIsp || named.count(as.asn) > 0) {
          continue;
        }
        attach_tap(bed, tail, as.border, http_only, out);
      }
      out.exhibitors.push_back(std::move(tail));
    }

    // US / CA observers answering exclusively with DNS from their own ASes.
    for (const auto& p : std::vector<Provincial>{{"wire:AS40444", 40444},
                                                 {"wire:AS29988", 29988}}) {
      const topo::AsRecord* as = topo.as_by_number(p.asn);
      if (as == nullptr) continue;
      DeployedExhibitor deployed =
          instantiate(bed, p.name, dns_only_wire_spec(p.name, p.asn, config), config, rng);
      attach_tap(bed, deployed, as->border, http_only, out);
      out.exhibitors.push_back(std::move(deployed));
    }

    // AD: the small-country destination of Figure 3.
    DeployedExhibitor ad = instantiate(bed, "wire:AD", ad_wire_spec(config), config, rng);
    attach_tap(bed, ad, topo.national_gateway("AD"),
               {.dns = false, .http = true, .tls = true}, out);
    out.exhibitors.push_back(std::move(ad));

    // The thin on-wire DNS observer tail (Table 3, DNS rows).
    DeployedExhibitor misc = instantiate(bed, "wire:dns-misc", dns_wire_misc_spec(config),
                                         config, rng);
    WireTap::Filter dns_only{.dns = true, .http = false, .tls = false};
    for (std::uint32_t asn : {203020U, 4808U, 21859U}) {
      const topo::AsRecord* as = topo.as_by_number(asn);
      if (as != nullptr) attach_tap(bed, misc, as->border, dns_only, out);
    }
    out.exhibitors.push_back(std::move(misc));
  }

  if (config.wire_tls_observers) {
    DeployedExhibitor tls = instantiate(bed, "wire:AS4134-tls", cn_tls_wire_spec(config),
                                        config, rng);
    WireTap::Filter tls_only{.dns = false, .http = false, .tls = true};
    attach_tap(bed, tls, topo.national_gateway("CN"), tls_only, out);
    for (const char* province :
         {"Jiangsu", "Shanghai", "Beijing", "Guangdong", "Zhejiang"}) {
      sim::NodeId agg = topo.province_aggregation(province);
      if (agg != sim::kInvalidNode) attach_tap(bed, tls, agg, tls_only, out);
    }
    out.exhibitors.push_back(std::move(tls));
  }

  if (config.tls_destination_shadowers) {
    // Destination-side observation is a sniffer in front of the server (the
    // paper locates 65% of TLS observers at the destination even though the
    // Phase-II sweep performs no handshakes — only a packet-level tap can
    // see those ClientHellos). The taps sit on the destination host node
    // itself, so located findings land at normalized hop 10 with no ICMP
    // address — exactly the destination signature.
    DeployedExhibitor tls_dest = instantiate(bed, "dest:tls-operators",
                                             tls_destination_spec(config), config, rng);
    DeployedExhibitor http_dest = instantiate(bed, "dest:http-operators",
                                              http_destination_spec(config), config, rng);
    WireTap::Filter tls_only{.dns = false, .http = false, .tls = true};
    WireTap::Filter http_only{.dns = false, .http = true, .tls = false};
    Rng site_rng(bed.config().topology.seed ^ fnv1a("site-picks"));
    int tls_sites = 0;
    auto tap_site_tls = [&](sim::NodeId node) {
      auto tap = std::make_unique<WireTap>(*tls_dest.exhibitor, tls_only,
                                           /*terminating=*/true);
      bed.net().add_tap(node, tap.get());
      tls_dest.taps.push_back(std::move(tap));
      tls_dest.tap_nodes.push_back(node);
      ++tls_sites;
    };
    for (const auto& site : topo.web_sites()) {
      // Site operators retaining SNI data concentrate in the destination
      // countries Figure 3 highlights (CN, AD, US, CA); a thin tail exists
      // everywhere. A small slice of operators mine Host headers too.
      // (Deliberately not registered as *wire* observers: these are
      // destination-side ground truth.)
      bool hotspot = site.country == "CN" || site.country == "AD" ||
                     site.country == "US" || site.country == "CA";
      if (site_rng.chance(hotspot ? 0.30 : 0.05)) tap_site_tls(site.node);
      if (site_rng.chance(0.02)) {
        auto tap = std::make_unique<WireTap>(*http_dest.exhibitor, http_only);
        bed.net().add_tap(site.node, tap.get());
        http_dest.taps.push_back(std::move(tap));
        http_dest.tap_nodes.push_back(site.node);
      }
    }
    // The paper's Table-2 TLS column guarantees destination observers
    // exist; tiny scaled-down farms keep at least one.
    if (tls_sites == 0 && !topo.web_sites().empty()) {
      tap_site_tls(topo.web_sites().front().node);
    }
    out.exhibitors.push_back(std::move(tls_dest));
    out.exhibitors.push_back(std::move(http_dest));
  }

  // Management services on a minority of observer routers: ~8% expose a
  // BGP port (plus the odd SSH), the rest stay dark — what the Section 5.2
  // port scan should find.
  {
    Rng svc_rng(bed.config().topology.seed ^ fnv1a("router-services"));
    std::set<sim::NodeId> tapped;
    for (const auto& deployed : out.exhibitors) {
      for (sim::NodeId node : deployed.tap_nodes) tapped.insert(node);
    }
    for (sim::NodeId router : tapped) {
      // Only actual routers: destination-side taps sit on hosts that already
      // run their own services.
      if (bed.net().kind(router) != sim::NodeKind::kRouter) continue;
      if (!svc_rng.chance(0.08)) continue;
      std::vector<std::uint16_t> ports = {179};
      if (svc_rng.chance(0.25)) ports.push_back(22);
      auto services = std::make_unique<RouterServices>(
          svc_rng.fork("svc-" + std::to_string(router)), ports);
      services->bind(bed.net(), router);
      out.routers_with_open_ports.insert(bed.net().address(router));
      out.router_services.push_back(std::move(services));
    }
  }

  if (config.dns_interception_noise) {
    // Replicating interception middleboxes: two CN provinces and one TR
    // network (Appendix E's noise the pair-resolver screen must catch).
    Rng icpt_rng(bed.config().topology.seed ^ fnv1a("interceptors"));
    std::vector<sim::NodeId> routers;
    for (const auto& as : topo.ases()) {
      if (as.country == "CN" && (as.subdivision == "Guangdong" || as.subdivision == "Sichuan") &&
          as.type == intel::PrefixType::kIsp) {
        routers.push_back(as.border);
      }
      if (as.country == "TR" && as.type == intel::PrefixType::kIsp) {
        routers.push_back(as.border);
      }
    }
    for (sim::NodeId router : routers) {
      net::Ipv4Addr spoof_target(net::Ipv4Addr(198, 18, 0, 1));  // benchmarking range
      auto interceptor = std::make_unique<DnsInterceptor>(
          spoof_target, icpt_rng.fork("icpt-" + std::to_string(router)));
      bed.net().add_tap(router, interceptor.get());
      out.interceptors.push_back(std::move(interceptor));
      out.interceptor_nodes.push_back(router);
    }
  }

  return out;
}

std::function<std::shared_ptr<void>(core::Testbed&)> standard_exhibitors(
    ShadowConfig config, const ShadowDeployment** frozen) {
  return [config, frozen](core::Testbed& bed) -> std::shared_ptr<void> {
    auto deployment =
        std::make_shared<ShadowDeployment>(deploy_standard_exhibitors(bed, config));
    if (frozen != nullptr && bed.frozen()) *frozen = deployment.get();
    return deployment;
  };
}

}  // namespace shadowprobe::shadow
