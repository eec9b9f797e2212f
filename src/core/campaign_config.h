// Campaign configuration and screening summary, shared by the CampaignPlan,
// the CampaignEngine, and its shard runners.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "core/vp_agent.h"
#include "sim/fault.h"

namespace shadowprobe::core {

/// How the engine maps VPs onto shard workers at run time. Not part of
/// CampaignConfig: the schedule is an execution concern (EngineExec) and
/// must never influence campaign output or the exported JSON.
enum class SchedulerMode : std::uint8_t {
  /// Fixed ownership for the whole campaign (round-robin by VP index, or an
  /// explicit deal). The pre-stealing engine behaviour, kept as the
  /// reference the determinism suite compares against.
  kStatic = 0,
  /// Per-phase VP work queues with work stealing: each shard drains its own
  /// deque VP by VP and, once empty, steals whole VPs from the most loaded
  /// shard. Output is byte-identical to kStatic — VP placement is
  /// layout-free — but ragged phases finish together.
  kSteal = 1,
};

[[nodiscard]] constexpr const char* scheduler_mode_name(SchedulerMode mode) noexcept {
  return mode == SchedulerMode::kStatic ? "static" : "steal";
}

struct CampaignConfig {
  /// Emission window of one Phase-I round.
  SimDuration phase1_window = 12 * kHour;
  /// Number of Phase-I rounds: the paper emits "continuously in a
  /// round-robin fashion without stop" for two months; each round sends a
  /// fresh decoy over every path.
  int phase1_rounds = 1;
  /// Delay after Phase I before problematic paths are computed and swept
  /// (gives slow exhibitors time to reveal themselves).
  SimDuration phase2_grace = 36 * kHour;
  SimDuration phase2_window = 12 * kHour;
  /// Campaign horizon: how long honeypots keep capturing (the paper ran for
  /// two months; 30 simulated days cover the 10-day retention tail).
  SimDuration total_duration = 30 * kDay;
  /// TTL sweep ceiling (the paper sweeps to 64; synthetic paths are <= 12
  /// hops, so a lower ceiling saves events without losing coverage).
  int max_sweep_ttl = 16;
  bool screening = true;
  bool measure_dns = true;
  bool measure_http = true;
  bool measure_tls = true;
  /// Mitigation study knobs (paper Section 6): encrypted / oblivious DNS
  /// transports and TLS ECH for the decoys.
  DnsDecoyTransport dns_transport = DnsDecoyTransport::kPlain;
  bool tls_decoys_use_ech = false;
  /// Worker threads for the post-barrier pipeline (classification of the
  /// merged hit logbook and the analysis-table scans). Results are
  /// byte-identical for any value; 1 = fully serial.
  int analysis_workers = 1;
  /// Fault-injection profile (sim/fault.h). The default (null) profile keeps
  /// campaign output byte-identical to a fault-free build; any enabled
  /// profile stays byte-identical across shard counts and analysis-worker
  /// counts because every fault decision is entity-keyed.
  sim::FaultProfile faults;
};

struct ScreeningReport {
  int candidates = 0;
  int rejected_residential = 0;
  int rejected_ttl_mangling = 0;
  int rejected_interception = 0;
  int usable = 0;
};

}  // namespace shadowprobe::core
