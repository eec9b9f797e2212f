#include "core/json_export.h"

#include <algorithm>

#include "common/strutil.h"

namespace shadowprobe::core {

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value directly follows "key":
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::escape_into(std::string_view text) {
  out_ += '"';
  for (char c : text) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += strprintf("\\u%04x", c);
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  needs_comma_.push_back(false);
  ++depth_;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  needs_comma_.push_back(false);
  ++depth_;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  --depth_;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separator();
  escape_into(name);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separator();
  escape_into(text);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separator();
  out_ += strprintf("%.10g", number);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separator();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separator();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  separator();
  out_ += "null";
  return *this;
}

namespace {

void write_cdf(JsonWriter& json, const Cdf& cdf) {
  json.begin_object();
  json.key("count").value(static_cast<std::int64_t>(cdf.count()));
  json.key("quantiles_seconds").begin_object();
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    json.key(strprintf("p%02d", static_cast<int>(p * 100))).value(cdf.quantile(p));
  }
  json.end_object();
  json.key("at").begin_object();
  json.key("1min").value(cdf.at(60));
  json.key("1h").value(cdf.at(3600));
  json.key("1d").value(cdf.at(86400));
  json.key("10d").value(cdf.at(10 * 86400.0));
  json.end_object();
  json.end_object();
}

}  // namespace

std::string export_campaign_json(Testbed& bed, const CampaignResult& result,
                                 const CampaignAnalysis& analysis) {
  JsonWriter json;
  json.begin_object();

  json.key("config").begin_object();
  json.key("seed").value(static_cast<std::int64_t>(bed.config().topology.seed));
  json.key("global_vps").value(bed.config().topology.global_vps);
  json.key("cn_vps").value(bed.config().topology.cn_vps);
  json.key("web_sites").value(bed.config().topology.web_sites);
  json.key("total_duration_days")
      .value(to_seconds(result.config.total_duration) / 86400.0);
  json.end_object();

  const auto& screening = result.screening;
  json.key("screening").begin_object();
  json.key("candidates").value(screening.candidates);
  json.key("usable").value(screening.usable);
  json.key("rejected_residential").value(screening.rejected_residential);
  json.key("rejected_ttl_mangling").value(screening.rejected_ttl_mangling);
  json.key("rejected_interception").value(screening.rejected_interception);
  json.end_object();

  json.key("volume").begin_object();
  json.key("decoys").value(static_cast<std::int64_t>(result.ledger.decoy_count()));
  json.key("paths").value(static_cast<std::int64_t>(result.ledger.paths().size()));
  json.key("honeypot_hits").value(static_cast<std::int64_t>(result.hits.size()));
  json.key("unsolicited_requests")
      .value(static_cast<std::int64_t>(result.unsolicited.size()));
  json.end_object();

  // Fault-profile runs (and only those) carry the coverage block, so the
  // null profile's export stays byte-identical to a fault-free build. Every
  // field here is layout-invariant across shard / worker counts.
  if (result.coverage) {
    json.key("fault_profile").value(result.config.faults.str());
    const CoverageStats& cov = *result.coverage;
    json.key("coverage").begin_object();
    json.key("phase1_planned").value(static_cast<std::int64_t>(cov.phase1_planned));
    json.key("decoys_attempted").value(static_cast<std::int64_t>(cov.decoys_attempted));
    json.key("decoys_delivered").value(static_cast<std::int64_t>(cov.decoys_delivered));
    json.key("decoys_lost").value(static_cast<std::int64_t>(cov.decoys_lost));
    json.key("decoys_retried").value(static_cast<std::int64_t>(cov.decoys_retried));
    json.key("retry_attempts").value(static_cast<std::int64_t>(cov.retry_attempts));
    json.key("tcp_retransmissions")
        .value(static_cast<std::int64_t>(cov.tcp_retransmissions));
    json.key("decoys_cancelled").value(static_cast<std::int64_t>(cov.decoys_cancelled));
    json.key("decoys_rescheduled")
        .value(static_cast<std::int64_t>(cov.decoys_rescheduled));
    json.key("phase2_deferred").value(static_cast<std::int64_t>(cov.phase2_deferred));
    json.key("vps_quarantined").value(static_cast<std::int64_t>(cov.vps_quarantined));
    json.key("honeypot_downtime_drops")
        .value(static_cast<std::int64_t>(cov.honeypot_downtime_drops));
    // Worst links first (ties by canonical name pair). Per-shard per-link
    // drop counts sum to the same totals for any shard/worker layout, so the
    // table is safe inside the byte-identity contract.
    {
      std::vector<sim::LinkDropCounters> links = cov.link_drops;
      std::sort(links.begin(), links.end(),
                [](const sim::LinkDropCounters& a, const sim::LinkDropCounters& b) {
                  if (a.total() != b.total()) return a.total() > b.total();
                  if (a.node_a != b.node_a) return a.node_a < b.node_a;
                  return a.node_b < b.node_b;
                });
      constexpr std::size_t kTopLinks = 10;
      if (links.size() > kTopLinks) links.resize(kTopLinks);
      json.key("link_drops").begin_array();
      for (const auto& link : links) {
        json.begin_object();
        json.key("node_a").value(link.node_a);
        json.key("node_b").value(link.node_b);
        json.key("link_loss").value(static_cast<std::int64_t>(link.link_loss));
        json.key("link_down").value(static_cast<std::int64_t>(link.link_down));
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
  }

  const auto& ratios = analysis.ratios;
  const auto& resolver_h = analysis.resolver_h;
  json.key("resolver_h").begin_array();
  for (const auto& name : resolver_h) json.value(name);
  json.end_array();

  json.key("path_ratios").begin_array();
  for (DecoyProtocol protocol :
       {DecoyProtocol::kDns, DecoyProtocol::kHttp, DecoyProtocol::kTls}) {
    for (const auto& dest : ratios.destinations_by_ratio(protocol)) {
      auto total = ratios.total(protocol, dest);
      auto cn = ratios.group(protocol, dest, true);
      auto global = ratios.group(protocol, dest, false);
      json.begin_object();
      json.key("protocol").value(decoy_protocol_name(protocol));
      json.key("destination").value(dest);
      json.key("paths").value(total.paths);
      json.key("problematic").value(total.problematic);
      json.key("ratio").value(total.ratio());
      json.key("cn_ratio").value(cn.ratio());
      json.key("global_ratio").value(global.ratio());
      json.end_object();
    }
  }
  json.end_array();

  const auto& locations = analysis.locations;
  json.key("observer_locations").begin_object();
  for (const auto& [protocol, shares] : locations.shares) {
    json.key(decoy_protocol_name(protocol)).begin_array();
    for (int hop = 1; hop <= 10; ++hop) json.value(shares.count(hop) ? shares.at(hop) : 0.0);
    json.end_array();
  }
  json.end_object();

  const auto& ases = analysis.ases;
  json.key("observer_ases").begin_object();
  json.key("total_observer_ips").value(ases.total_observer_ips);
  json.key("cn_share").value(ases.observer_countries.share("CN"));
  for (const auto& [protocol, rows] : ases.rows) {
    json.key(decoy_protocol_name(protocol)).begin_array();
    std::size_t printed = 0;
    for (const auto& row : rows) {
      json.begin_object();
      json.key("asn").value(static_cast<std::int64_t>(row.asn));
      json.key("name").value(row.as_name);
      json.key("country").value(row.country);
      json.key("observer_ips").value(row.observer_ips);
      json.key("share").value(row.share);
      json.end_object();
      if (++printed == 5) break;
    }
    json.end_array();
  }
  json.end_object();

  const auto& dns_cdfs = analysis.dns_cdfs;
  json.key("interval_cdf_dns").begin_object();
  for (const auto& [name, cdf] : dns_cdfs) {
    json.key(name);
    write_cdf(json, cdf);
  }
  json.end_object();

  const auto& web_cdfs = analysis.web_cdfs;
  json.key("interval_cdf_web").begin_object();
  for (const auto& [protocol, cdf] : web_cdfs) {
    json.key(decoy_protocol_name(protocol));
    write_cdf(json, cdf);
  }
  json.end_object();

  const auto& combos = analysis.combos;
  json.key("decoy_outcomes").begin_object();
  for (const auto& [dest, shares] : combos.shares) {
    json.key(dest).begin_object();
    for (const auto& [outcome, share] : shares) {
      json.key(decoy_outcome_name(outcome)).value(share);
    }
    json.end_object();
  }
  json.end_object();

  const auto& retention = analysis.retention;
  json.key("retention").begin_object();
  json.key("over3_after_1h").value(retention.over3_after_1h);
  json.key("over10_after_1h").value(retention.over10_after_1h);
  json.key("web_after_10d").value(retention.web_after_10d);
  json.key("considered_decoys").value(retention.considered_decoys);
  json.end_object();

  const auto& incentives = analysis.incentives;
  json.key("incentives").begin_object();
  json.key("http_requests").value(incentives.http_requests);
  json.key("exploits_found").value(incentives.exploits_found);
  json.key("payload_classes").begin_object();
  for (const auto& [cls, share] : incentives.payload_shares) {
    json.key(intel::payload_class_name(cls)).value(share);
  }
  json.end_object();
  json.key("blocklist_rates").begin_object();
  json.key("dns_decoy_http").value(incentives.dns_decoy_http_origin_blocklisted);
  json.key("dns_decoy_https").value(incentives.dns_decoy_https_origin_blocklisted);
  json.key("web_decoy_http").value(incentives.web_decoy_http_origin_blocklisted);
  json.key("web_decoy_https").value(incentives.web_decoy_https_origin_blocklisted);
  json.end_object();
  json.end_object();

  json.end_object();
  return json.str();
}

std::string export_campaign_json(Testbed& bed, const CampaignResult& result,
                                 int workers) {
  return export_campaign_json(bed, result, analyze_campaign(bed, result, workers));
}

}  // namespace shadowprobe::core
