// CampaignEngine: the campaign controller over a pluggable shard backend.
//
// The engine owns the phase structure and the merges; *where* shards
// execute is a ShardBackend concern (core/shard_backend.h):
//
//   screening (backend)   -> merged verdicts fix the active-VP set
//   plan Phase I (serial) -> the CampaignPlan preassigns every path id and
//                            decoy seq, so identifiers — and the decoy
//                            domains derived from them — are independent of
//                            the shard count
//   Phase I (backend)     -> run to the Phase-II barrier
//   barrier (serial)      -> merge interim ledgers + canonically sorted
//                            hits, classify, extend the plan with TTL sweeps
//   Phase II (backend)    -> run to the campaign horizon
//   merge (serial)        -> one ledger / hit list / hop log, correlated
//                            into one CampaignResult
//
// Determinism: for a fixed master seed the merged result is byte-identical
// for any shard count (including N=1) AND any backend — in-process threads
// or out-of-process workers — because ids come from the plan, behavioural
// RNG streams are keyed by entity names, every merge ends in a canonical
// sort, and the wire protocol transports shard results losslessly.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign_config.h"
#include "core/campaign_plan.h"
#include "core/campaign_result.h"
#include "core/shard_backend.h"
#include "core/shard_runner.h"
#include "core/testbed.h"
#include "core/world.h"

namespace shadowprobe::core {

/// How the engine provisions per-shard substrates.
enum class SubstrateMode {
  /// Build one immutable World, instantiate N thin frozen Testbeds over it.
  /// Structural state (topology, layout, zones, blocklist, signatures) is
  /// shared read-only; peak RSS stays near-flat in the shard count.
  kSharedWorld,
  /// Build N full independent Testbed replicas (the pre-World behaviour).
  /// Kept as a fallback and as the reference substrate the shared-World
  /// byte-identity tests compare against.
  kReplicaPerShard,
};

/// Where shards execute. The default (shard_procs == 0) runs them as
/// threads in this process; shard_procs >= 1 forks that many
/// `--shard-worker` children and drives them over the wire protocol
/// (shard_procs == 1 still exercises the full protocol through one child).
struct EngineExec {
  int shard_procs = 0;
  /// Worker binary for the multi-process backend; empty resolves via
  /// $SHADOWPROBE_WORKER_BIN, then /proc/self/exe.
  std::string worker_exe;
  /// VP scheduler (core/vp_scheduler.h): kSteal (default) lets idle shards
  /// claim VPs from loaded ones; kStatic executes the fixed deal verbatim.
  /// Output is byte-identical either way — this only moves work.
  SchedulerMode scheduler = SchedulerMode::kSteal;
  /// Test-only override of the initial vp->shard deal for the in-process
  /// backend (the determinism suite skews it to force steals). Entries past
  /// the vector — or the whole vp range when empty — fall back to
  /// round-robin. Ignored by the multi-process backend, which computes its
  /// own weight-balanced deals.
  std::vector<std::uint32_t> initial_deal;
  /// Worker supervision knobs (multi-process backend only): respawn budget,
  /// heartbeat interval, stall timeout, backoff. See SupervisionConfig.
  SupervisionConfig supervision;
};

class CampaignEngine {
 public:
  using Decorator = ShardRunner::Decorator;

  /// Builds the per-shard substrates. In kSharedWorld mode (the default) one
  /// prototype Testbed is authored, frozen into a World, and N frozen
  /// instances are built over it concurrently; in kReplicaPerShard mode each
  /// shard authors a full private replica. Either way `shard_count` is
  /// clamped to [1, DecoyLedger::kMaxShards]; a clamp logs a warning and is
  /// recorded in the result's ShardExecutionStats.
  CampaignEngine(const TestbedConfig& bed_config, const CampaignConfig& config,
                 int shard_count, Decorator decorate = nullptr,
                 SubstrateMode mode = SubstrateMode::kSharedWorld);
  /// Shares a pre-built World (e.g. across several engines in one process).
  CampaignEngine(std::shared_ptr<const World> world, const CampaignConfig& config,
                 int shard_count, Decorator decorate = nullptr);
  /// Full-control constructor: exec.shard_procs >= 1 selects the
  /// multi-process backend (workers are spawned immediately and build their
  /// Worlds concurrently with this constructor's own World). The worker
  /// always applies its binary's default decorator, so `decorate` must
  /// match it for the controller's context to agree with the workers'
  /// substrates. Multi-process execution implies shared-World substrates
  /// inside each worker; `mode` only affects the in-process path.
  CampaignEngine(const TestbedConfig& bed_config, const CampaignConfig& config,
                 int shard_count, Decorator decorate, const EngineExec& exec,
                 SubstrateMode mode = SubstrateMode::kSharedWorld);
  ~CampaignEngine();

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Runs the full campaign and returns the merged, correlated result.
  CampaignResult run();

  [[nodiscard]] int shard_count() const noexcept { return backend_->shard_count(); }
  /// The context replica downstream consumers (geo database, signatures,
  /// blocklist, config — e.g. JSON export) read from: shard 0's Testbed for
  /// the in-process backend, a dedicated frozen instance for the
  /// multi-process one.
  [[nodiscard]] Testbed& primary() noexcept { return *primary_; }
  /// The shared immutable substrate; null in kReplicaPerShard mode.
  [[nodiscard]] const std::shared_ptr<const World>& world() const noexcept {
    return world_;
  }
  /// Simulator events processed across every shard's loop (perf reporting).
  /// For the multi-process backend this is known after run() completes.
  [[nodiscard]] std::uint64_t events_processed() noexcept {
    return backend_->events_processed();
  }

 private:
  /// Fresh ledger = plan paths + every shard's records, canonically ordered
  /// and rebound to the primary replica's VP storage.
  [[nodiscard]] DecoyLedger merged_ledger(
      const std::vector<const DecoyLedger*>& ledgers) const;
  [[nodiscard]] static std::vector<HoneypotHit> merged_hits(
      const std::vector<const std::vector<HoneypotHit>*>& shard_hits);

  /// Clamps the shard count, builds the backend, and wires the primary
  /// context testbed.
  void build_backend(const TestbedConfig& bed_config, int shard_count,
                     const Decorator& decorate, const EngineExec& exec,
                     SubstrateMode mode);

  CampaignConfig config_;
  CampaignPlan plan_;
  int requested_shards_ = 1;  ///< pre-clamp constructor argument
  int worker_procs_ = 0;      ///< 0 = in-process backend
  SchedulerMode scheduler_ = SchedulerMode::kSteal;
  std::shared_ptr<const World> world_;  ///< null in kReplicaPerShard mode
  std::unique_ptr<ShardBackend> backend_;
  std::unique_ptr<Testbed> context_bed_;  ///< multi-process mode only
  Testbed* primary_ = nullptr;
};

}  // namespace shadowprobe::core
