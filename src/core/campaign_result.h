// CampaignResult: the merged, analysis-ready outcome of a campaign.
//
// CampaignEngine produces one of these by merging per-shard ledgers,
// logbooks, and hop logs, so every downstream consumer (Correlator,
// ObserverLocator, the analyzers, JSON export, the CLI report printers) is
// written once against this struct and never needs to know how many shards
// or which backend executed the campaign.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "core/campaign_config.h"
#include "core/correlator.h"
#include "core/honeypot.h"
#include "core/ledger.h"
#include "core/locate.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace shadowprobe::core {

/// Runs the correlator over `hits` — the single shared entry point for every
/// place that used to construct its own Correlator (Phase-II planning, the
/// final pass, and the engine barrier). `workers` > 1 classifies seq-group
/// partitions on a worker pool; the output is byte-identical to serial.
[[nodiscard]] std::vector<UnsolicitedRequest> classify_unsolicited(
    const DecoyLedger& ledger, const std::vector<HoneypotHit>& hits,
    const FlatSet<std::uint32_t>* replicated_seqs, int workers = 1);

/// How the campaign was actually executed: the shard count as requested,
/// the count that ran after clamping to [1, DecoyLedger::kMaxShards], and
/// one event-loop stats entry per executed shard (serial runs record one).
struct ShardExecutionStats {
  int requested_shards = 1;
  int effective_shards = 1;
  /// Worker processes the shards ran in: 0 = in-process threads, >= 1 =
  /// out-of-process workers (MultiProcessBackend), including `1` — a single
  /// worker child still exercises the full wire protocol.
  int worker_procs = 0;
  bool clamped = false;  ///< requested_shards fell outside the valid range
  /// Execution schedule the shards ran under. Report/log only — the
  /// schedule never influences campaign output, so it is absent from the
  /// exported JSON (which must stay byte-identical across schedulers).
  SchedulerMode scheduler = SchedulerMode::kStatic;
  std::uint64_t steals_attempted = 0;  ///< claims that found the own deque empty
  std::uint64_t steals_completed = 0;  ///< whole VPs actually stolen
  /// Supervision activity (multi-process backend only; all zero on a clean
  /// run). Recovery re-executes shards byte-identically, so these are
  /// report/log diagnostics, never part of the exported JSON.
  std::uint64_t workers_lost = 0;       ///< death/stall/corruption events
  std::uint64_t workers_respawned = 0;  ///< replacement processes brought up
  std::uint64_t workers_degraded = 0;   ///< slots degraded to in-process
  std::uint64_t shards_retried = 0;     ///< owned shards re-dispatched
  std::vector<sim::EventLoopStats> per_shard;
  /// One network-counter snapshot per executed shard (delivered/forwarded/
  /// drops by reason). Per-shard values are NOT layout-invariant — replica
  /// infrastructure traffic repeats on every shard — so they feed the text
  /// report, never the byte-identical JSON export.
  std::vector<sim::NetworkCounters> per_shard_net;

  /// Load imbalance across the executed shards: max over mean of per-shard
  /// processed-event counts. 1.0 means perfectly balanced (and is returned
  /// for serial runs); 2.0 means the busiest shard did twice the average.
  [[nodiscard]] double event_imbalance() const {
    if (per_shard.size() <= 1) return 1.0;
    std::uint64_t max = 0;
    std::uint64_t total = 0;
    for (const auto& stats : per_shard) {
      max = std::max(max, stats.processed);
      total += stats.processed;
    }
    if (total == 0) return 1.0;
    double mean = static_cast<double>(total) / static_cast<double>(per_shard.size());
    return static_cast<double>(max) / mean;
  }
};

/// How much of the planned measurement actually happened under a fault
/// profile. Every field is layout-invariant (a pure function of the master
/// seed and the profile, independent of shard / worker counts), so the whole
/// struct is exported in the campaign JSON next to the analysis tables it
/// qualifies. Populated only when the fault profile is enabled.
struct CoverageStats {
  std::uint64_t phase1_planned = 0;    ///< Phase-I emissions in the plan
  std::uint64_t decoys_attempted = 0;  ///< Phase-I decoys actually emitted
  std::uint64_t decoys_delivered = 0;  ///< ... whose destination responded
  std::uint64_t decoys_lost = 0;       ///< ... that exhausted their retries
  std::uint64_t decoys_retried = 0;    ///< distinct decoys re-sent >= once
  std::uint64_t retry_attempts = 0;    ///< UDP decoy re-send events
  std::uint64_t tcp_retransmissions = 0;  ///< segments re-sent by VP stacks
  std::uint64_t decoys_cancelled = 0;  ///< skipped: owner VP quarantined
  std::uint64_t decoys_rescheduled = 0;  ///< re-planned onto replacement VPs
  std::uint64_t phase2_deferred = 0;   ///< sweep probes shifted past a VP outage
  std::uint64_t vps_quarantined = 0;
  std::uint64_t honeypot_downtime_drops = 0;  ///< packets lost to collector outages
  /// Injected drops broken down by link, canonically ordered. Per-shard
  /// drop counts sum to a layout-invariant total (every fault draw is keyed
  /// by packet identity + time, and each packet traverses exactly one
  /// shard's replica), so the merged table is safe for the byte-identical
  /// JSON export.
  std::vector<sim::LinkDropCounters> link_drops;

  /// Merge step for per-shard partials (planned/attempted/delivered are
  /// computed once from the merged ledger, not summed).
  void absorb(const CoverageStats& other) {
    decoys_lost += other.decoys_lost;
    decoys_retried += other.decoys_retried;
    retry_attempts += other.retry_attempts;
    tcp_retransmissions += other.tcp_retransmissions;
    decoys_cancelled += other.decoys_cancelled;
    decoys_rescheduled += other.decoys_rescheduled;
    phase2_deferred += other.phase2_deferred;
    vps_quarantined += other.vps_quarantined;
    honeypot_downtime_drops += other.honeypot_downtime_drops;
    sim::merge_link_drops(link_drops, other.link_drops);
  }
};

struct CampaignResult {
  CampaignConfig config;
  ScreeningReport screening;
  DecoyLedger ledger;
  std::vector<const topo::VantagePoint*> active_vps;
  /// Merged honeypot hits in canonical order (serial runs keep capture
  /// order, which for one shard is already canonical up to ties).
  std::vector<HoneypotHit> hits;
  std::vector<UnsolicitedRequest> unsolicited;
  std::vector<ObserverFinding> findings;
  // Key-lookup tables (locator probes hop_log by seq; the correlator tests
  // replicated membership) — never iterated for output, so flat maps are
  // safe and an order of magnitude cheaper to build at merge time.
  FlatMap<std::uint32_t, net::Ipv4Addr> hop_log;
  FlatSet<std::uint32_t> replicated_seqs;
  ShardExecutionStats shard_stats;
  /// Present exactly when config.faults.enabled() — the null profile leaves
  /// result shape (and thus JSON) byte-identical to a fault-free build.
  std::optional<CoverageStats> coverage;

  /// Fills unsolicited + findings from ledger / hits / hop_log.
  /// `analysis_workers` sizes the classification worker pool (the result is
  /// byte-identical for any value).
  void correlate(int analysis_workers = 1);
};

}  // namespace shadowprobe::core
