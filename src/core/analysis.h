// Behavioral analyzers: one function per table/figure of the paper's
// evaluation (Section 4/5). Each consumes only pipeline outputs — the decoy
// ledger, the classified unsolicited requests, Phase-II findings — plus the
// public intelligence interfaces (geo database, blocklist, signature DB);
// never the shadow ground truth.
//
// Every analyzer that scans the unsolicited-request vector accepts a
// `workers` count: the scan decomposes into per-partition partial
// accumulators (contiguous chunks of the vector) combined by an explicit,
// order-insensitive-or-order-preserving merge, so the produced table is
// byte-identical in exported JSON for any worker count. See analysis.cpp
// for the partial/merge shape of each table.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/campaign_result.h"
#include "core/testbed.h"
#include "intel/blocklist.h"
#include "intel/geoip.h"
#include "intel/signatures.h"

namespace shadowprobe::core {

// -- Table 1 ------------------------------------------------------------------

struct PlatformGroupSummary {
  std::string group;  // "Global (excl. CN)" / "China (CN mainland)" / "Total"
  int providers = 0;
  int ips = 0;
  int ases = 0;
  int regions = 0;  // countries, or CN provinces for the CN half
};

std::vector<PlatformGroupSummary> summarize_platform(
    const std::vector<const topo::VantagePoint*>& vps);

// -- Figure 3 -----------------------------------------------------------------

struct PathRatioCell {
  int paths = 0;
  int problematic = 0;

  [[nodiscard]] double ratio() const {
    return paths == 0 ? 0.0 : static_cast<double>(problematic) / paths;
  }
};

struct PathRatioTable {
  /// (protocol, destination label) -> VP-country -> cell. Destination label
  /// is the resolver name for DNS paths and the destination country for
  /// HTTP/TLS paths.
  std::map<std::pair<DecoyProtocol, std::string>, std::map<std::string, PathRatioCell>>
      cells;

  [[nodiscard]] PathRatioCell total(DecoyProtocol protocol,
                                    const std::string& dest_label) const;
  /// Aggregate over one VP-country group ("CN" / "global" = everything else).
  [[nodiscard]] PathRatioCell group(DecoyProtocol protocol, const std::string& dest_label,
                                    bool cn_platform) const;
  /// Destination labels seen for `protocol`, sorted by descending total ratio.
  [[nodiscard]] std::vector<std::string> destinations_by_ratio(DecoyProtocol protocol) const;
};

PathRatioTable path_ratios(const DecoyLedger& ledger,
                           const std::vector<UnsolicitedRequest>& unsolicited,
                           int workers = 1);

/// Resolver_h: the `count` resolvers with the highest problematic-path
/// ratio (the paper's top-5: Yandex, 114DNS, One DNS, DNS PAI, Vercara).
std::vector<std::string> top_shadowed_resolvers(const PathRatioTable& table,
                                                std::size_t count);

// -- Table 2 ------------------------------------------------------------------

struct LocationDistribution {
  /// Per protocol: normalized hop (1..10) -> share of located paths.
  std::map<DecoyProtocol, std::map<int, double>> shares;
  std::map<DecoyProtocol, int> located_paths;
};

LocationDistribution observer_locations(const std::vector<ObserverFinding>& findings);

// -- Table 3 ------------------------------------------------------------------

struct ObserverAsRow {
  std::uint32_t asn = 0;
  std::string as_name;
  std::string country;
  int observer_ips = 0;
  double share = 0.0;  // of on-wire observer IPs for this protocol
};

struct ObserverAsTable {
  std::map<DecoyProtocol, std::vector<ObserverAsRow>> rows;  // descending by count
  int total_observer_ips = 0;
  Counter<std::string> observer_countries;  // all protocols pooled
};

ObserverAsTable observer_ases(const std::vector<ObserverFinding>& findings,
                              const intel::GeoDatabase& geo);

// -- Figures 4 & 7 --------------------------------------------------------------

/// CDF of decoy->request intervals (seconds), keyed by destination resolver
/// (Figure 4) or by decoy protocol (Figure 7).
std::map<std::string, Cdf> interval_cdf_by_resolver(
    const DecoyLedger& ledger, const std::vector<UnsolicitedRequest>& unsolicited,
    const std::vector<std::string>& resolvers, int workers = 1);

std::map<DecoyProtocol, Cdf> interval_cdf_by_protocol(
    const std::vector<UnsolicitedRequest>& unsolicited, int workers = 1);

// -- Figure 5 -----------------------------------------------------------------

/// Per-decoy outcome category, ordered by "severity" (a decoy is assigned
/// its most telling outcome).
enum class DecoyOutcome {
  kNoUnsolicited = 0,
  kDnsWithinHour,
  kDnsAfterHours,
  kWebWithinDay,   // unsolicited HTTP/HTTPS within one day
  kWebAfterDays,   // unsolicited HTTP/HTTPS later than one day
};

std::string decoy_outcome_name(DecoyOutcome outcome);

struct ComboBreakdown {
  /// destination resolver -> outcome -> share of that resolver's DNS decoys.
  std::map<std::string, std::map<DecoyOutcome, double>> shares;
  std::map<std::string, int> decoys;  // Phase-I DNS decoys per destination
};

/// `vp_countries` (optional) restricts the breakdown to decoys emitted by
/// VPs in those countries — the paper reads 114DNS's Figure-5 bar over CN
/// vantage points.
ComboBreakdown protocol_combos(const DecoyLedger& ledger,
                               const std::vector<UnsolicitedRequest>& unsolicited,
                               const std::vector<std::string>& vp_countries = {},
                               int workers = 1);

// -- Figure 6 -----------------------------------------------------------------

struct OriginAsTable {
  /// destination resolver -> (ASN, AS name) -> unsolicited request count.
  std::map<std::string, Counter<std::string>> per_resolver;
  /// Blocklist hit rate over distinct origin addresses of unsolicited DNS
  /// queries (the paper: 5.2%).
  double dns_origin_blocklisted = 0.0;
  int distinct_dns_origins = 0;
};

OriginAsTable origin_ases(const DecoyLedger& ledger,
                          const std::vector<UnsolicitedRequest>& unsolicited,
                          const std::vector<std::string>& resolvers,
                          const intel::GeoDatabase& geo, const intel::Blocklist& blocklist,
                          int workers = 1);

// -- Section 5.1 statistics -----------------------------------------------------

struct RetentionStats {
  /// Among Phase-I DNS decoys, share still producing > 3 (resp. > 10)
  /// unsolicited DNS requests more than one hour after emission (§5.1
  /// measures DNS-data *reuse*; HTTP/HTTPS probes have their own metric
  /// below and do not count here).
  double over3_after_1h = 0.0;
  double over10_after_1h = 0.0;
  /// Share of DNS decoys to `long_retention_resolver` whose data re-appears
  /// in HTTP(S) requests 10 or more days later (the paper: ~40% for Yandex).
  double web_after_10d = 0.0;
  int considered_decoys = 0;
};

/// `resolvers` restricts the denominator to DNS decoys sent to those
/// destinations (the paper's Section 5.1 analyses Resolver_h); pass an
/// empty list to consider every DNS decoy.
RetentionStats retention_stats(const DecoyLedger& ledger,
                               const std::vector<UnsolicitedRequest>& unsolicited,
                               const std::vector<std::string>& resolvers,
                               const std::string& long_retention_resolver,
                               int workers = 1);

// -- Section 5 payloads & reputation --------------------------------------------

struct IncentiveStats {
  /// Payload class shares over unsolicited HTTP requests.
  std::map<intel::PayloadClass, double> payload_shares;
  int http_requests = 0;
  bool exploits_found = false;
  /// Blocklist hit rates over distinct origin addresses, per decoy protocol
  /// class and request protocol (DNS decoys: 57% HTTP / 72% HTTPS;
  /// HTTP/TLS decoys: 45% / 55%).
  double dns_decoy_http_origin_blocklisted = 0.0;
  double dns_decoy_https_origin_blocklisted = 0.0;
  double web_decoy_http_origin_blocklisted = 0.0;
  double web_decoy_https_origin_blocklisted = 0.0;
};

IncentiveStats incentive_stats(const std::vector<UnsolicitedRequest>& unsolicited,
                               const intel::SignatureDb& signatures,
                               const intel::Blocklist& blocklist, int workers = 1);

// -- Full-campaign analysis bundle ----------------------------------------------

/// Everything the report printers and the JSON export consume, computed in
/// one pass so downstream consumers never re-derive a table. The bundle is
/// what the post-barrier pipeline produces after classification.
struct CampaignAnalysis {
  PathRatioTable ratios;
  std::vector<std::string> resolver_h;  // top-5 shadowed resolvers
  LocationDistribution locations;
  ObserverAsTable ases;
  std::map<std::string, Cdf> dns_cdfs;       // Figure 4, over Resolver_h
  std::map<DecoyProtocol, Cdf> web_cdfs;     // Figure 7
  ComboBreakdown combos;                     // Figure 5
  RetentionStats retention;                  // §5.1, over Resolver_h
  IncentiveStats incentives;                 // §5 payloads & reputation
};

/// Computes every analysis table of a correlated campaign. `workers` sizes
/// the per-table scan pools; the bundle — and any JSON exported from it —
/// is byte-identical for any worker count.
CampaignAnalysis analyze_campaign(Testbed& bed, const CampaignResult& result,
                                  int workers = 1);

}  // namespace shadowprobe::core
