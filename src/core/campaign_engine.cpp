#include "core/campaign_engine.h"

#include <algorithm>
#include <set>

#include "common/log.h"
#include "common/strutil.h"

namespace shadowprobe::core {

namespace {

int clamp_shards(int shard_count) {
  int count = std::clamp(shard_count, 1, static_cast<int>(DecoyLedger::kMaxShards));
  if (count != shard_count) {
    SP_LOG_WARN(strprintf("requested %d shards, clamped to %d (valid range 1..%d)",
                          shard_count, count,
                          static_cast<int>(DecoyLedger::kMaxShards)));
  }
  return count;
}

template <typename Shard>
std::vector<const DecoyLedger*> ledgers_of(const std::vector<Shard>& shards) {
  std::vector<const DecoyLedger*> out;
  out.reserve(shards.size());
  for (const Shard& shard : shards) out.push_back(shard.ledger);
  return out;
}

template <typename Shard>
std::vector<const std::vector<HoneypotHit>*> hits_of(const std::vector<Shard>& shards) {
  std::vector<const std::vector<HoneypotHit>*> out;
  out.reserve(shards.size());
  for (const Shard& shard : shards) out.push_back(shard.hits);
  return out;
}

/// Membership-only downstream (the correlator's replication exclusion), so
/// the union can stay an unordered flat set.
template <typename Shard>
FlatSet<std::uint32_t> merged_replicated(const std::vector<Shard>& shards) {
  FlatSet<std::uint32_t> merged;
  for (const Shard& shard : shards) {
    for (std::uint32_t seq : shard.replicated) merged.insert(seq);
  }
  return merged;
}

}  // namespace

CampaignEngine::CampaignEngine(const TestbedConfig& bed_config, const CampaignConfig& config,
                               int shard_count, Decorator decorate, SubstrateMode mode)
    : CampaignEngine(bed_config, config, shard_count, std::move(decorate), EngineExec{},
                     mode) {}

CampaignEngine::CampaignEngine(std::shared_ptr<const World> world,
                               const CampaignConfig& config, int shard_count,
                               Decorator decorate)
    : config_(config), requested_shards_(shard_count), world_(std::move(world)) {
  int count = clamp_shards(shard_count);
  backend_ = std::make_unique<InProcessBackend>(world_->config(), world_, count, config_,
                                                decorate);
  primary_ = backend_->context_testbed();
}

CampaignEngine::CampaignEngine(const TestbedConfig& bed_config, const CampaignConfig& config,
                               int shard_count, Decorator decorate, const EngineExec& exec,
                               SubstrateMode mode)
    : config_(config), requested_shards_(shard_count) {
  build_backend(bed_config, shard_count, decorate, exec, mode);
}

void CampaignEngine::build_backend(const TestbedConfig& bed_config, int shard_count,
                                   const Decorator& decorate, const EngineExec& exec,
                                   SubstrateMode mode) {
  int count = clamp_shards(shard_count);
  scheduler_ = exec.scheduler;
  if (exec.shard_procs >= 1) {
    worker_procs_ = std::clamp(exec.shard_procs, 1, count);
    // Spawn first: the workers build their Worlds concurrently with ours.
    auto multiproc = std::make_unique<MultiProcessBackend>(
        bed_config, config_, count, worker_procs_, exec.worker_exe, exec.scheduler,
        decorate, exec.supervision);
    MultiProcessBackend* supervisor = multiproc.get();
    backend_ = std::move(multiproc);
    // The controller still needs a context replica (geo database,
    // signatures, blocklist, VP storage for the merged ledger's pointer
    // rebinds). No traffic ever runs on it — an undecorated frozen instance
    // is sufficient, since everything the consumers read is World-aliased.
    world_ = World::build(bed_config, decorate);
    context_bed_ = Testbed::instantiate(world_);
    primary_ = context_bed_.get();
    // Should a worker slot degrade to in-process execution, its runners
    // instantiate against our World instead of building another.
    supervisor->set_fallback_world(world_);
    SP_LOG_INFO(strprintf("engine: multi-process backend, %d shards across %d workers "
                          "(%s scheduler)",
                          count, worker_procs_, scheduler_mode_name(exec.scheduler)));
    return;
  }
  if (mode == SubstrateMode::kSharedWorld) {
    world_ = World::build(bed_config, decorate);
  }
  backend_ = std::make_unique<InProcessBackend>(bed_config, world_, count, config_,
                                                decorate, exec.scheduler,
                                                exec.initial_deal);
  primary_ = backend_->context_testbed();
}

CampaignEngine::~CampaignEngine() = default;

DecoyLedger CampaignEngine::merged_ledger(
    const std::vector<const DecoyLedger*>& ledgers) const {
  DecoyLedger merged;
  merged.seed_paths(plan_.paths());
  for (const DecoyLedger* ledger : ledgers) merged.merge(*ledger);
  merged.finalize();
  merged.rebind_vps(primary_->topology().vantage_points());
  return merged;
}

std::vector<HoneypotHit> CampaignEngine::merged_hits(
    const std::vector<const std::vector<HoneypotHit>*>& shard_hits) {
  std::vector<HoneypotHit> hits;
  for (const auto* shard : shard_hits) {
    hits.insert(hits.end(), shard->begin(), shard->end());
  }
  // Canonical order: within a shard hits are already time-ordered, and any
  // decoy domain only ever appears inside one shard, so the sort never
  // reorders the per-domain sequences the correlator's criteria depend on.
  std::stable_sort(hits.begin(), hits.end(), hit_canonical_less);
  return hits;
}

CampaignResult CampaignEngine::run() {
  const auto& vps = primary().topology().vantage_points();
  ScreeningReport report;
  std::vector<std::size_t> active;
  SimTime start = 0;

  if (config_.screening) {
    ShardScreening screening = backend_->run_screening(vps.size());
    report.candidates = static_cast<int>(vps.size());
    // Verdicts arrive merged in global topology order, whatever shard
    // screened each VP.
    for (std::size_t i = 0; i < vps.size(); ++i) {
      switch (screening.verdicts[i]) {
        case ScreeningVerdict::kResidential:
          ++report.rejected_residential;
          break;
        case ScreeningVerdict::kTtlMangling:
          ++report.rejected_ttl_mangling;
          break;
        case ScreeningVerdict::kIntercepted:
          ++report.rejected_interception;
          break;
        case ScreeningVerdict::kUsable:
          active.push_back(i);
          break;
      }
    }
    report.usable = static_cast<int>(active.size());
    start = screening.clock;
    SP_LOG_INFO(strprintf("engine screening: %d candidates, %d usable across %d shards",
                          report.candidates, report.usable, backend_->shard_count()));
  } else {
    for (std::size_t i = 0; i < vps.size(); ++i) active.push_back(i);
    report.candidates = report.usable = static_cast<int>(vps.size());
  }

  // Phase I: plan once, let the backend execute the owned partitions.
  plan_ = CampaignPlan::build_phase1(primary().topology(), config_, active, start);
  SimTime barrier = config_.phase1_window + config_.phase2_grace;
  std::vector<ShardBarrier> barriers = backend_->run_phase1(plan_, barrier);

  // Phase-II barrier: merge what the honeypots have so far, classify, and
  // extend the plan — first re-homing the decoys quarantined VPs never sent,
  // then the TTL sweeps (seqs continue the global counter).
  std::size_t rescheduled = 0;
  std::set<std::size_t> quarantined;
  std::size_t schedule_from = plan_.emissions().size();
  {
    if (config_.faults.enabled()) {
      // Each owner shard recorded exactly which of its emissions were
      // skipped; the union is the re-plan work list.
      std::set<std::uint32_t> cancelled;
      for (const ShardBarrier& shard : barriers) {
        quarantined.insert(shard.quarantined.begin(), shard.quarantined.end());
        cancelled.insert(shard.cancelled.begin(), shard.cancelled.end());
      }
      rescheduled = plan_.reschedule_quarantined(cancelled, quarantined, active, barrier,
                                                 config_.phase2_window);
      if (!quarantined.empty()) {
        SP_LOG_INFO(strprintf("engine barrier: %zu VPs quarantined, %zu decoys "
                              "re-homed onto replacement VPs",
                              quarantined.size(), rescheduled));
      }
    }
    DecoyLedger interim = merged_ledger(ledgers_of(barriers));
    std::vector<HoneypotHit> hits = merged_hits(hits_of(barriers));
    FlatSet<std::uint32_t> replicated = merged_replicated(barriers);
    auto so_far = classify_unsolicited(interim, hits, &replicated,
                                       config_.analysis_workers);
    auto problematic = Correlator::problematic_paths(so_far);
    if (!quarantined.empty()) {
      // A quarantined VP cannot run its sweep; drop its paths rather than
      // plan emissions that would only be cancelled again.
      for (auto it = problematic.begin(); it != problematic.end();) {
        std::int32_t vp_index = plan_.path(*it).vp_index;
        if (vp_index >= 0 && quarantined.count(static_cast<std::size_t>(vp_index)) != 0) {
          it = problematic.erase(it);
        } else {
          ++it;
        }
      }
    }
    SP_LOG_INFO(strprintf("engine phase II: sweeping %zu problematic paths",
                          problematic.size()));
    plan_.extend_phase2(problematic, config_, barrier);
  }
  // schedule_from also covers the re-homed Phase-I emissions; with the
  // null profile it equals extend_phase2's first index exactly.
  std::vector<ShardFinal> finals =
      backend_->run_phase2(plan_, schedule_from, config_.total_duration);

  // Final merge.
  CampaignResult out;
  out.config = config_;
  out.screening = report;
  out.ledger = merged_ledger(ledgers_of(finals));
  out.hits = merged_hits(hits_of(finals));
  out.replicated_seqs = merged_replicated(finals);
  out.shard_stats.requested_shards = requested_shards_;
  out.shard_stats.effective_shards = backend_->shard_count();
  out.shard_stats.worker_procs = worker_procs_;
  out.shard_stats.clamped = requested_shards_ != backend_->shard_count();
  out.shard_stats.scheduler = scheduler_;
  const SupervisionStats sup = backend_->supervision_stats();
  out.shard_stats.workers_lost = sup.workers_lost;
  out.shard_stats.workers_respawned = sup.workers_respawned;
  out.shard_stats.workers_degraded = sup.workers_degraded;
  out.shard_stats.shards_retried = sup.shards_retried;
  for (const ShardFinal& shard : finals) {
    // Each seq is owned by exactly one shard, so folding the shards' hop
    // tables into the ordered result map is order-insensitive.
    for (const auto& [seq, hop] : shard.hops) out.hop_log.emplace(seq, hop);
    out.shard_stats.per_shard.push_back(shard.stats);
    out.shard_stats.per_shard_net.push_back(shard.net);
    out.shard_stats.steals_attempted += shard.steals_attempted;
    out.shard_stats.steals_completed += shard.steals_completed;
  }
  if (config_.faults.enabled()) {
    CoverageStats cov;
    cov.phase1_planned = plan_.phase1_count();
    for (const DecoyRecord& record : out.ledger.decoys()) {
      if (record.phase2) continue;
      ++cov.decoys_attempted;
      if (record.dest_responded) ++cov.decoys_delivered;
    }
    for (const ShardFinal& shard : finals) cov.absorb(shard.coverage);
    cov.decoys_rescheduled = rescheduled;
    out.coverage = cov;
  }
  out.active_vps.reserve(active.size());
  for (std::size_t i : active) out.active_vps.push_back(&vps[i]);
  out.correlate(config_.analysis_workers);
  SP_LOG_INFO(strprintf("engine complete: %d shards, %zu decoys, %zu hits, "
                        "%zu unsolicited, %zu located paths",
                        backend_->shard_count(), out.ledger.decoy_count(), out.hits.size(),
                        out.unsolicited.size(), out.findings.size()));
  if (backend_->shard_count() > 1) {
    SP_LOG_INFO(strprintf("engine balance: event imbalance %.3f (max/mean over %zu "
                          "shard loops), %s scheduler, %llu/%llu steals "
                          "completed/attempted",
                          out.shard_stats.event_imbalance(),
                          out.shard_stats.per_shard.size(),
                          scheduler_mode_name(scheduler_),
                          static_cast<unsigned long long>(out.shard_stats.steals_completed),
                          static_cast<unsigned long long>(out.shard_stats.steals_attempted)));
  }
  if (out.shard_stats.workers_lost > 0) {
    SP_LOG_WARN(strprintf("engine recovery: %llu worker(s) lost, %llu respawned, "
                          "%llu degraded in-process, %llu shard(s) re-dispatched "
                          "(output unaffected — re-execution is byte-identical)",
                          static_cast<unsigned long long>(out.shard_stats.workers_lost),
                          static_cast<unsigned long long>(out.shard_stats.workers_respawned),
                          static_cast<unsigned long long>(out.shard_stats.workers_degraded),
                          static_cast<unsigned long long>(out.shard_stats.shards_retried)));
  }
  return out;
}

}  // namespace shadowprobe::core
