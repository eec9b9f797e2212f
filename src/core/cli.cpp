#include "core/cli.h"

#include <charconv>
#include <cstdlib>

#include "common/log.h"
#include "common/strutil.h"

namespace shadowprobe::core {

namespace {

Error bad(const std::string& what) { return Error(what); }

Result<SchedulerMode> parse_scheduler(const std::string& option,
                                      const std::string& text) {
  if (text == "static") return SchedulerMode::kStatic;
  if (text == "steal") return SchedulerMode::kSteal;
  return bad(option + " expects static|steal, got '" + text + "'");
}

/// Whole-token integer parse; no trailing junk, no silent atoi zeroes.
bool parse_int(const std::string& text, long long& out) {
  if (text.empty()) return false;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

Result<int> positive_int(const std::string& option, const std::string& text) {
  long long value = 0;
  if (!parse_int(text, value)) {
    return bad(option + " expects an integer, got '" + text + "'");
  }
  if (value < 1) {
    return bad(option + " must be >= 1, got " + text);
  }
  if (value > 1'000'000) {
    return bad(option + " is implausibly large: " + text);
  }
  return static_cast<int>(value);
}

/// Like positive_int but admitting 0 (e.g. --worker-retries 0 = degrade on
/// first loss, heartbeat 0 = stall detection off).
Result<int> non_negative_int(const std::string& option, const std::string& text) {
  long long value = 0;
  if (!parse_int(text, value)) {
    return bad(option + " expects an integer, got '" + text + "'");
  }
  if (value < 0) {
    return bad(option + " must be >= 0, got " + text);
  }
  if (value > 1'000'000) {
    return bad(option + " is implausibly large: " + text);
  }
  return static_cast<int>(value);
}

}  // namespace

CliEnvironment CliEnvironment::from_process() {
  CliEnvironment env;
  if (const char* v = std::getenv("SHADOWPROBE_SHARDS")) env.shards = v;
  if (const char* v = std::getenv("SHADOWPROBE_SHARD_PROCS")) env.shard_procs = v;
  if (const char* v = std::getenv("SHADOWPROBE_WORKER_RETRIES")) env.worker_retries = v;
  if (const char* v = std::getenv("SHADOWPROBE_WORKER_HEARTBEAT_MS")) {
    env.worker_heartbeat = v;
  }
  if (const char* v = std::getenv("SHADOWPROBE_WORKER_STALL_MS")) env.worker_stall = v;
  if (const char* v = std::getenv("SHADOWPROBE_SCHEDULER")) env.scheduler = v;
  if (const char* v = std::getenv("SHADOWPROBE_ANALYSIS_WORKERS")) {
    env.analysis_workers = v;
  }
  if (const char* v = std::getenv("SHADOWPROBE_FAULT_PROFILE")) env.fault_profile = v;
  return env;
}

Result<CliOptions> parse_cli_options(const std::vector<std::string>& args,
                                     const CliEnvironment& env) {
  CliOptions options;

  if (!env.shards.empty()) {
    auto shards = positive_int("SHADOWPROBE_SHARDS", env.shards);
    if (!shards.ok()) return shards.error();
    options.shards = shards.value();
  }
  if (!env.shard_procs.empty()) {
    auto procs = positive_int("SHADOWPROBE_SHARD_PROCS", env.shard_procs);
    if (!procs.ok()) return procs.error();
    options.shard_procs = procs.value();
  }
  if (!env.worker_retries.empty()) {
    auto retries = non_negative_int("SHADOWPROBE_WORKER_RETRIES", env.worker_retries);
    if (!retries.ok()) return retries.error();
    options.worker_retries = retries.value();
  }
  if (!env.worker_heartbeat.empty()) {
    auto heartbeat =
        non_negative_int("SHADOWPROBE_WORKER_HEARTBEAT_MS", env.worker_heartbeat);
    if (!heartbeat.ok()) return heartbeat.error();
    options.worker_heartbeat_ms = heartbeat.value();
  }
  if (!env.worker_stall.empty()) {
    auto stall = positive_int("SHADOWPROBE_WORKER_STALL_MS", env.worker_stall);
    if (!stall.ok()) return stall.error();
    options.worker_stall_ms = stall.value();
  }
  if (!env.scheduler.empty()) {
    auto scheduler = parse_scheduler("SHADOWPROBE_SCHEDULER", env.scheduler);
    if (!scheduler.ok()) return scheduler.error();
    options.scheduler = scheduler.value();
  }
  if (!env.analysis_workers.empty()) {
    auto workers = positive_int("SHADOWPROBE_ANALYSIS_WORKERS", env.analysis_workers);
    if (!workers.ok()) return workers.error();
    options.analysis_workers = workers.value();
  }
  if (!env.fault_profile.empty()) {
    auto profile = sim::FaultProfile::parse(env.fault_profile);
    if (!profile.ok()) {
      return bad("SHADOWPROBE_FAULT_PROFILE: " + profile.error().message);
    }
    options.faults = profile.value();
  }

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const std::string* & out) -> bool {
      if (i + 1 >= args.size()) return false;
      out = &args[++i];
      return true;
    };
    const std::string* v = nullptr;
    if (arg == "--scale") {
      if (!next(v)) return bad("--scale expects a value");
      double scale = 0.0;
      if (!parse_double(*v, scale) || scale <= 0.0) {
        return bad("--scale expects a positive number, got '" + *v + "'");
      }
      options.scale = scale;
    } else if (arg == "--seed") {
      if (!next(v)) return bad("--seed expects a value");
      long long seed = 0;
      if (!parse_int(*v, seed) || seed < 0) {
        return bad("--seed expects a non-negative integer, got '" + *v + "'");
      }
      options.seed = static_cast<std::uint64_t>(seed);
    } else if (arg == "--days") {
      if (!next(v)) return bad("--days expects a value");
      auto days = positive_int("--days", *v);
      if (!days.ok()) return days.error();
      options.days = days.value();
    } else if (arg == "--shards") {
      if (!next(v)) return bad("--shards expects a value");
      auto shards = positive_int("--shards", *v);
      if (!shards.ok()) return shards.error();
      options.shards = shards.value();
    } else if (arg == "--shard-procs") {
      if (!next(v)) return bad("--shard-procs expects a value");
      auto procs = positive_int("--shard-procs", *v);
      if (!procs.ok()) return procs.error();
      options.shard_procs = procs.value();
    } else if (arg == "--worker-retries") {
      if (!next(v)) return bad("--worker-retries expects a value");
      auto retries = non_negative_int("--worker-retries", *v);
      if (!retries.ok()) return retries.error();
      options.worker_retries = retries.value();
    } else if (arg == "--scheduler") {
      if (!next(v)) return bad("--scheduler expects static|steal");
      auto scheduler = parse_scheduler("--scheduler", *v);
      if (!scheduler.ok()) return scheduler.error();
      options.scheduler = scheduler.value();
    } else if (arg == "--analysis-workers") {
      if (!next(v)) return bad("--analysis-workers expects a value");
      auto workers = positive_int("--analysis-workers", *v);
      if (!workers.ok()) return workers.error();
      options.analysis_workers = workers.value();
    } else if (arg == "--fault-profile") {
      if (!next(v)) return bad("--fault-profile expects a spec");
      auto profile = sim::FaultProfile::parse(*v);
      if (!profile.ok()) return bad("--fault-profile: " + profile.error().message);
      options.faults = profile.value();
    } else if (arg == "--transport") {
      if (!next(v)) return bad("--transport expects plain|dot|odoh");
      if (*v == "plain") {
        options.transport = DnsDecoyTransport::kPlain;
      } else if (*v == "dot") {
        options.transport = DnsDecoyTransport::kEncrypted;
      } else if (*v == "odoh") {
        options.transport = DnsDecoyTransport::kOblivious;
      } else {
        return bad("--transport expects plain|dot|odoh, got '" + *v + "'");
      }
    } else if (arg == "--ech") {
      options.ech = true;
    } else if (arg == "--no-screening") {
      options.screening = false;
    } else if (arg == "--report") {
      if (!next(v)) return bad("--report expects a value");
      if (*v != "all" && *v != "fig3" && *v != "table2" && *v != "table3" &&
          *v != "retention") {
        return bad("--report expects all|fig3|table2|table3|retention, got '" + *v + "'");
      }
      options.report = *v;
    } else if (arg == "--json") {
      if (!next(v)) return bad("--json expects a file path");
      options.json_path = *v;
    } else if (arg == "--trace") {
      if (!next(v)) return bad("--trace expects a value");
      auto trace = positive_int("--trace", *v);
      if (!trace.ok()) return trace.error();
      options.trace = trace.value();
    } else {
      return bad("unknown option: " + arg);
    }
  }

  // More workers than shards would leave the surplus idle at best (and shard
  // ownership assumes proc_count <= shard_count); clamp like the engine
  // clamps an oversized shard count.
  if (options.shard_procs > options.shards) {
    SP_LOG_WARN(strprintf("requested %d worker processes for %d shards, clamped to %d",
                          options.shard_procs, options.shards, options.shards));
    options.shard_procs = options.shards;
  }
  return options;
}

}  // namespace shadowprobe::core
