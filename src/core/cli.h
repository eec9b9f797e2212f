// CLI option parsing for the shadowprobe front-end, extracted into sp_core
// so the validation rules are unit-testable without spawning the binary.
//
// Parsing is strict: every numeric argument must consume its whole token and
// land in the option's valid range, and a malformed fault-profile spec is
// rejected with the profile parser's own message. Errors come back as
// Result values; the binary turns them into a usage message and exit 2.
#pragma once

#include <string>
#include <vector>

#include "common/error.h"
#include "core/campaign_config.h"
#include "sim/fault.h"

namespace shadowprobe::core {

struct CliOptions {
  double scale = 1.0;
  std::uint64_t seed = 20240301;
  int days = 25;
  int shards = 1;       // CampaignEngine shard count (>= 1)
  int shard_procs = 0;  // 0 = in-process threads, >= 1 = worker processes
  /// Respawn budget per lost worker slot before degrading to in-process
  /// execution (multi-process backend only). 0 = degrade on first loss.
  int worker_retries = 2;
  /// Worker heartbeat interval / stall timeout, in milliseconds. Env-only
  /// knobs (SHADOWPROBE_WORKER_HEARTBEAT_MS / SHADOWPROBE_WORKER_STALL_MS);
  /// heartbeat 0 disables stall detection.
  int worker_heartbeat_ms = 200;
  int worker_stall_ms = 30000;
  SchedulerMode scheduler = SchedulerMode::kSteal;
  int analysis_workers = 1;
  DnsDecoyTransport transport = DnsDecoyTransport::kPlain;
  bool ech = false;
  bool screening = true;
  std::string report = "all";
  std::string json_path;
  int trace = 0;
  sim::FaultProfile faults;
};

/// Environment fallbacks, injected so tests control them without setenv.
/// Empty string = unset. Consulted before the argument list, so explicit
/// flags always win.
struct CliEnvironment {
  std::string shards;             // SHADOWPROBE_SHARDS
  std::string shard_procs;        // SHADOWPROBE_SHARD_PROCS
  std::string worker_retries;     // SHADOWPROBE_WORKER_RETRIES
  std::string worker_heartbeat;   // SHADOWPROBE_WORKER_HEARTBEAT_MS
  std::string worker_stall;       // SHADOWPROBE_WORKER_STALL_MS
  std::string scheduler;          // SHADOWPROBE_SCHEDULER
  std::string analysis_workers;  // SHADOWPROBE_ANALYSIS_WORKERS
  std::string fault_profile;     // SHADOWPROBE_FAULT_PROFILE

  /// Snapshot of the real process environment.
  static CliEnvironment from_process();
};

/// Parses the options following `shadowprobe_cli run`. `args` excludes the
/// program name and the `run` verb.
[[nodiscard]] Result<CliOptions> parse_cli_options(const std::vector<std::string>& args,
                                                   const CliEnvironment& env = {});

}  // namespace shadowprobe::core
