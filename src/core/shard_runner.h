// ShardRunner: one shard of a partitioned campaign.
//
// Each shard owns a complete Testbed replica — topology, resolvers,
// honeypots, web farm, and (via the decorator) exhibitor ground truth —
// built from the same master seed, so every replica is structurally
// identical. What differs is only *which VPs emit*: a shard executes the
// plan emissions whose VP it owns (round-robin by topology index) on its
// private event loop, and records outcomes in its private ledger / logbook
// / hop log, which the engine merges afterwards.
//
// Replica equivalence relies on two properties of the substrate:
//   - construction is label-keyed (fork_rng with stable names, exhibitor
//     seeds derived from seed ^ hash(label)), so replicas deploy byte-alike;
//   - behavioural randomness downstream of an emission is keyed by stable
//     entity names (VP id, decoy domain, resolver question), never by draw
//     order, so a decoy's fate is independent of which other VPs share its
//     shard.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.h"
#include "core/campaign_config.h"
#include "core/campaign_plan.h"
#include "core/campaign_result.h"
#include "core/screening.h"
#include "core/testbed.h"
#include "core/vp_agent.h"
#include "core/vp_scheduler.h"
#include "sim/fault.h"

namespace shadowprobe::core {

class ShardRunner {
 public:
  /// Installs ground-truth shadowing (exhibitors etc.) on a freshly built
  /// replica; the returned handle keeps the deployment alive for the
  /// shard's lifetime. Type-erased so sp_core needs no sp_shadow dependency.
  using Decorator = std::function<std::shared_ptr<void>(Testbed&)>;

  /// Replica mode: builds a full private Testbed from `bed_config`.
  ShardRunner(std::uint32_t shard_index, std::uint32_t shard_count,
              const TestbedConfig& bed_config, const CampaignConfig& config,
              const Decorator& decorate);
  /// Shared-World mode: instantiates a frozen per-shard Testbed over the
  /// immutable `world`; the decorator replays its deployment against the
  /// frozen layout (add_host_in_as verifies the replay by node name).
  ShardRunner(std::uint32_t shard_index, std::uint32_t shard_count,
              std::shared_ptr<const World> world, const CampaignConfig& config,
              const Decorator& decorate);
  ~ShardRunner();

  ShardRunner(const ShardRunner&) = delete;
  ShardRunner& operator=(const ShardRunner&) = delete;

  [[nodiscard]] std::uint32_t shard_index() const noexcept { return shard_index_; }
  /// Ownership under the static schedule: the explicit deal when one was
  /// installed, round-robin by topology index otherwise. The stealing
  /// schedule ignores this predicate — execution follows the work queue.
  [[nodiscard]] bool owns_vp(std::size_t vp_index) const noexcept {
    if (vp_index < deal_.size()) return deal_[vp_index] == shard_index_;
    return vp_index % shard_count_ == shard_index_;
  }
  /// Installs an explicit vp->shard deal (same vector on every shard). The
  /// static scheduler executes it verbatim; the stealing scheduler seeds its
  /// deques with it. Entries past the vector fall back to round-robin.
  void set_deal(std::vector<std::uint32_t> deal) { deal_ = std::move(deal); }

  // -- phases (the engine runs these on worker threads; each touches only
  //    this shard's replica) ---------------------------------------------

  /// Emits screening probes for the owned, non-residential VPs and lets
  /// them settle (advances the shard clock by one hour, so Phase I starts
  /// at the same time on every shard).
  void run_screening();
  /// Seeds the shard ledger with the plan's path table (rebound to this
  /// replica's VP storage).
  void adopt_plan(const CampaignPlan& plan);
  /// Schedules the owned subset of plan emissions [first, last).
  void schedule_owned(const CampaignPlan& plan, std::size_t first, std::size_t last);
  /// Runs this shard's event loop up to `deadline`.
  void run_until(SimTime deadline);

  // -- per-VP phase execution (the stealing scheduler's unit of work). A
  //    phase becomes: begin_phase(); then one run_*_vp() per claimed VP; then
  //    run_until(deadline) to drain stragglers and align the clock. Each
  //    per-VP pass rewinds the loop to the phase start before scheduling, so
  //    a stolen VP's events still run at their true simulated times and the
  //    exported records match the static schedule byte for byte. ------------

  /// Marks the current clock as the phase start every subsequent per-VP
  /// pass rewinds to.
  void begin_phase() { phase_start_ = bed_->loop().now(); }
  [[nodiscard]] SimTime phase_start() const noexcept { return phase_start_; }
  /// Screening pass for one claimed VP: probes (skipped for residential VPs,
  /// like run_screening) plus the one-hour settle window.
  void run_screening_vp(std::size_t vp_index);
  /// Plan pass for one claimed VP: schedules exactly `emissions` (indices
  /// into plan.emissions(), all belonging to the VP) and runs to `deadline`.
  void run_plan_vp(const CampaignPlan& plan,
                   const std::vector<std::uint32_t>& emissions, SimTime deadline);

  // -- cross-phase fault-state hand-off (stealing only) --------------------

  /// Snapshot of this shard's failure streak / quarantine state for a VP it
  /// executed, for adoption by the VP's next-phase executor.
  [[nodiscard]] VpCarry export_carry(std::size_t vp_index) const;
  /// Installs a carry exported by the VP's previous executor. Must run
  /// before the VP's first pass of the new phase. Idempotent when the
  /// executor did not change.
  void adopt_carry(const VpCarry& carry);

  // -- results -----------------------------------------------------------

  /// Screening verdict for an owned VP (valid after run_screening).
  [[nodiscard]] ScreeningVerdict verdict(std::size_t vp_index) const;
  [[nodiscard]] const DecoyLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] const std::vector<HoneypotHit>& hits() const noexcept {
    return bed_->logbook().hits();
  }
  /// Per-seq first-hop observations. FlatMap iteration order is
  /// table-internal; the engine folds these into ordered containers before
  /// anything reaches output.
  [[nodiscard]] const FlatMap<std::uint32_t, net::Ipv4Addr>& hop_log() const noexcept {
    return hop_log_;
  }
  [[nodiscard]] const FlatSet<std::uint32_t>& replicated_seqs() const noexcept {
    return replicated_seqs_;
  }
  [[nodiscard]] sim::EventLoopStats stats() const noexcept { return bed_->loop().stats(); }
  [[nodiscard]] Testbed& testbed() noexcept { return *bed_; }
  [[nodiscard]] const Testbed& testbed() const noexcept { return *bed_; }

  // -- fault / resilience results (meaningful when config.faults.enabled()) --

  /// This shard's partial coverage accounting: event counters for owned VPs
  /// only, so the engine's absorb() over all shards counts each event once.
  [[nodiscard]] CoverageStats coverage() const;
  /// Owned VPs quarantined during Phase I: vp_index -> quarantine time.
  [[nodiscard]] const FlatMap<std::size_t, SimTime>& quarantined_vps() const noexcept {
    return quarantined_;
  }
  /// Seqs of owned emissions skipped at fire time because their VP was
  /// quarantined — the exact set the barrier re-plans, so reschedule and
  /// cancellation can never disagree on boundary emissions.
  [[nodiscard]] const FlatSet<std::uint32_t>& cancelled_seqs() const noexcept {
    return cancelled_seqs_;
  }
  /// This replica's network counters (NOT layout-invariant; report only).
  [[nodiscard]] sim::NetworkCounters net_counters() const noexcept {
    return bed_->net().counters();
  }

 private:
  /// Common body: both public ctors delegate here with a ready Testbed
  /// (authoring replica or frozen instance — the wiring is identical).
  ShardRunner(std::uint32_t shard_index, std::uint32_t shard_count,
              std::unique_ptr<Testbed> bed, const CampaignConfig& config,
              const Decorator& decorate);

  /// Agents are built in vantage_points() order, one per VP, so the agent
  /// for a VP is found by pointer arithmetic against the replica's VP array
  /// — no index map needed.
  VpAgent* agent_for(const topo::VantagePoint* vp) {
    return agents_[static_cast<std::size_t>(vp - vps_base_)].get();
  }

  /// Shared body of schedule_owned and run_plan_vp: schedules one plan
  /// emission (churn deferral, quarantine fire-time check, protocol fanout).
  void schedule_emission(const CampaignPlan& plan, std::size_t index);
  /// Fire-time quarantine predicate: locally quarantined or carried in.
  [[nodiscard]] bool vp_quarantined(std::size_t vp_index) const noexcept {
    return quarantined_.contains(vp_index) || carried_quarantined_.contains(vp_index);
  }

  std::uint32_t shard_index_;
  std::uint32_t shard_count_;
  std::vector<std::uint32_t> deal_;  // explicit vp->shard deal; empty = round-robin
  SimTime phase_start_ = 0;
  CampaignConfig config_;
  std::unique_ptr<Testbed> bed_;
  std::shared_ptr<void> deployment_;
  Rng rng_;
  DecoyLedger ledger_;
  std::vector<std::unique_ptr<VpAgent>> agents_;
  const topo::VantagePoint* vps_base_ = nullptr;  // agents_[i] serves vps_base_[i]
  FlatMap<std::uint32_t, net::Ipv4Addr> hop_log_;
  FlatMap<std::uint32_t, int> response_counts_;
  FlatSet<std::uint32_t> replicated_seqs_;
  FlatSet<const topo::VantagePoint*> intercepted_vps_;
  std::unique_ptr<ControlServer> control_server_;
  net::Ipv4Addr control_addr_;

  // Fault layer (null unless config.faults.enabled()). The injector must
  // outlive the Network that holds a raw pointer to it — both die with this
  // runner, injector declared after bed_ so it is destroyed first but the
  // Network never routes during destruction.
  std::unique_ptr<sim::FaultInjector> injector_;
  FlatMap<std::size_t, sim::OutageWindow> vp_outages_;  // churned owned+peer VPs
  FlatMap<std::size_t, int> failure_streaks_;           // consecutive decoy failures
  FlatMap<std::size_t, SimTime> quarantined_;           // quarantined *here* (counted once)
  // Quarantines adopted from a VP's previous executor. Kept apart from
  // quarantined_ so coverage() never counts a carried quarantine a second
  // time, while the fire-time predicate still honours it.
  FlatMap<std::size_t, SimTime> carried_quarantined_;
  FlatSet<std::uint32_t> cancelled_seqs_;
  std::uint64_t decoys_lost_ = 0;
  std::uint64_t decoys_retried_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t decoys_cancelled_ = 0;
  std::uint64_t phase2_deferred_ = 0;
};

}  // namespace shadowprobe::core
