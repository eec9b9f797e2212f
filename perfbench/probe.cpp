// One measured campaign, run in a process of its own.
//
// perfbench/run.py starts this program once per measured run, so the peak
// RSS and allocation count it reports belong to exactly one campaign. It
// drives only the engine's public surface, the way `shadowprobe_cli run
// --json` does: World::build, CampaignEngine(world, ...), run(),
// analyze_campaign(), export_campaign_json(). Every timing is taken around
// one of those calls; every counter is read from the public CampaignResult.
//
// Built twice from this file (see CMakeLists.txt):
//   perfbench_probe         plain build, gives the end-to-end metrics;
//   perfbench_probe_traced  PERFBENCH_TRACED: links the allocation counter,
//                           records spans, and adds the per-layer counters.
//
// Usage:
//   perfbench_probe --workload NAME --seed N [--export FILE]
//                   [--run-id ID] [--spans FILE]
// Prints one JSON object of metrics on stdout and writes the campaign's
// JSON export to FILE, which the runner compares across runs. Without
// --export the probe only sets up, cold, and prints setup_s: the runner
// starts many such processes, because one cold set-up is a few ms and
// jittery.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/json_export.h"
#include "core/world.h"
#include "shadow/profiles.h"
#include "sim/fault.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

#if PERFBENCH_TRACED
namespace shadowprobe::bench {
std::uint64_t allocation_count() noexcept;  // bench/alloc_hook.cpp
}
#endif

using namespace shadowprobe;

namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  int shards;
  const char* fault_profile;  // FaultProfile::parse spec; "none" = null profile
};

constexpr Workload kWorkloads[] = {
    {"clean_serial", 1, "none"},
    {"clean_sharded", 2, "none"},
    {"lossy_serial", 1, "lossy"},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 20240301;
  std::string export_path;
  std::string run_id = "run";
  std::string spans_path;
};

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

/// Times the public calls as spans. The traced build also counts the
/// allocations inside each span. Spans and counters stay in memory and are
/// written at exit when --spans is given.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string parent;
    double start_s = 0.0;  // since tracer creation
    double end_s = 0.0;
    std::uint64_t allocs = 0;  // allocations made inside the span
  };

  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  /// Times `call`, records it as a span, and returns the elapsed seconds.
  template <typename Call>
  double span(const char* name, const char* parent, Call&& call) {
    std::uint64_t allocs_before = allocations();
    Clock::time_point start = Clock::now();
    call();
    Clock::time_point end = Clock::now();
    spans_.push_back({name, parent, seconds_between(origin_, start),
                      seconds_between(origin_, end), allocations() - allocs_before});
    return seconds_between(start, end);
  }

  /// Allocations made inside the last span recorded under `name`.
  [[nodiscard]] std::uint64_t allocs_of(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name) return it->allocs;
    }
    return 0;
  }

  /// Counters observed at a span boundary.
  void counter(const char* span, const char* name, double value) {
    counters_.push_back({std::string(span) + "/" + name, value});
  }

  [[nodiscard]] static std::uint64_t allocations() noexcept {
#if PERFBENCH_TRACED
    return bench::allocation_count();
#else
    return 0;
#endif
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    for (const Span& s : spans_) {
      out << "{\"run\":\"" << run_id_ << "\",\"span\":\"" << s.name << "\",\"parent\":\""
          << s.parent << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
          << ",\"allocs\":" << s.allocs << "}\n";
    }
    for (const auto& [name, value] : counters_) {
      out << "{\"run\":\"" << run_id_ << "\",\"counter\":\"" << name
          << "\",\"value\":" << value << "}\n";
    }
  }

 private:
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, double>> counters_;
};

class MetricsLine {
 public:
  void add(const char* name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    text_ += text_.empty() ? "{" : ",";
    text_ += "\"";
    text_ += name;
    text_ += "\":";
    text_ += buf;
  }
  [[nodiscard]] std::string str() const { return text_ + "}"; }

 private:
  std::string text_;
};

bool parse_options(int argc, char** argv, Options& options) {
  if (argc % 2 == 0) return false;  // options come in pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) options.workload = &w;
      }
      if (options.workload == nullptr) return false;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--export") {
      options.export_path = value;
    } else if (key == "--run-id") {
      options.run_id = value;
    } else if (key == "--spans") {
      options.spans_path = value;
    } else {
      return false;
    }
  }
  return options.workload != nullptr;
}

int run(const Options& options) {
  const Workload& workload = *options.workload;
  core::TestbedConfig bed_config;
  bed_config.topology.seed = options.seed;
  core::CampaignConfig config;
  auto faults = sim::FaultProfile::parse(workload.fault_profile);
  if (!faults.ok()) {
    std::fprintf(stderr, "probe: %s\n", faults.error().message.c_str());
    return 1;
  }
  config.faults = faults.value();

  shadow::ShadowConfig shadow_config;
  auto decorate = [shadow_config](core::Testbed& bed) -> std::shared_ptr<void> {
    return std::make_shared<shadow::ShadowDeployment>(
        shadow::deploy_standard_exhibitors(bed, shadow_config));
  };

  Tracer tracer(options.run_id);

  // Set-up, once and cold, as a user of `shadowprobe_cli run` waits for it:
  // World::build + engine construction.
  std::unique_ptr<core::CampaignEngine> engine;
  double world_build_s = 0.0;
  double engine_init_s = 0.0;
  tracer.span("setup", "", [&] {
    std::shared_ptr<const core::World> world;
    world_build_s = tracer.span("core.world_build", "setup", [&] {
      world = core::World::build(bed_config, decorate);
    });
    engine_init_s = tracer.span("core.engine_init", "setup", [&] {
      engine = std::make_unique<core::CampaignEngine>(world, config, workload.shards, decorate);
    });
  });

  MetricsLine metrics;
  metrics.add("setup_s", world_build_s + engine_init_s);
  if (options.export_path.empty()) {
    std::printf("%s\n", metrics.str().c_str());
    return 0;
  }

  // The campaign: what `shadowprobe_cli run --json` waits for after set-up.
  core::Testbed& context = engine->primary();
  core::CampaignResult result;
  core::CampaignAnalysis analysis;
  std::string json;
  const double cpu_before = cpu_seconds();
  double run_s = 0.0;
  double analysis_s = 0.0;
  double export_s = 0.0;
  const double campaign_s = tracer.span("campaign", "", [&] {
    run_s = tracer.span("core.engine_run", "campaign", [&] { result = engine->run(); });
    analysis_s = tracer.span("core.analysis", "campaign", [&] {
      analysis = core::analyze_campaign(context, result, 1);
    });
    export_s = tracer.span("core.export", "campaign", [&] {
      json = core::export_campaign_json(context, result, analysis);
    });
  });
  const double cpu_s = cpu_seconds() - cpu_before;

  std::ofstream out(options.export_path, std::ios::binary);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "probe: cannot write %s\n", options.export_path.c_str());
    return 1;
  }

  const double decoys = static_cast<double>(result.ledger.decoy_count());
  sim::NetworkCounters net;
  for (const auto& shard_net : result.shard_stats.per_shard_net) net.absorb(shard_net);
  const core::CoverageStats coverage = result.coverage.value_or(core::CoverageStats{});

  metrics.add("campaign_s", campaign_s);
  metrics.add("decoys_per_s", ratio(decoys, campaign_s));
  metrics.add("cpu_s", cpu_s);
  metrics.add("peak_rss_mb", peak_rss_mb());
  // What the runner checks on every run.
  metrics.add("core.decoys", decoys);
  metrics.add("has_coverage", result.coverage.has_value() ? 1.0 : 0.0);
  metrics.add("sim.net.link_loss", static_cast<double>(net.link_loss));
  metrics.add("core.coverage.retry_attempts", static_cast<double>(coverage.retry_attempts));

#if PERFBENCH_TRACED
  // Correlation re-timed on an untimed copy: engine.run() already ran it,
  // and outside the campaign region it cannot inflate campaign_s.
  core::CampaignResult copy = result;
  const double correlate_s = tracer.span("core.correlate", "", [&] { copy.correlate(1); });

  const core::ShardExecutionStats& stats = result.shard_stats;
  sim::EventLoopStats loop;
  for (const auto& shard : stats.per_shard) {
    loop.processed += shard.processed;
    loop.scheduled += shard.scheduled;
    loop.cancelled += shard.cancelled;
    loop.high_water = std::max(loop.high_water, shard.high_water);
  }
  const double events = static_cast<double>(loop.processed);
  const double allocs_run = static_cast<double>(tracer.allocs_of("core.engine_run"));
  auto count = [](auto value) { return static_cast<double>(value); };

  metrics.add("core.world_build_ms", 1e3 * world_build_s);
  metrics.add("core.engine_init_ms", 1e3 * engine_init_s);
  metrics.add("core.engine_run_ms", 1e3 * run_s);
  metrics.add("core.correlate_ms", 1e3 * correlate_s);
  metrics.add("core.analysis_ms", 1e3 * analysis_s);
  metrics.add("core.export_ms", 1e3 * export_s);
  metrics.add("core.sched.event_imbalance", stats.event_imbalance());
  metrics.add("core.sched.steals_completed", count(stats.steals_completed));
  metrics.add("core.sched.steal_success",
              ratio(count(stats.steals_completed), count(stats.steals_attempted)));
  metrics.add("core.hits", count(result.hits.size()));
  metrics.add("core.unsolicited", count(result.unsolicited.size()));
  metrics.add("core.findings", count(result.findings.size()));
  metrics.add("core.usable_vps", count(result.screening.usable));
  metrics.add("core.coverage.delivered_ratio",
              ratio(count(coverage.decoys_delivered), count(coverage.decoys_attempted)));
  metrics.add("core.coverage.tcp_retransmissions", count(coverage.tcp_retransmissions));
  metrics.add("core.coverage.vps_quarantined", count(coverage.vps_quarantined));
  metrics.add("core.coverage.decoys_rescheduled", count(coverage.decoys_rescheduled));
  metrics.add("sim.events_processed", events);
  metrics.add("sim.events_scheduled", count(loop.scheduled));
  metrics.add("sim.events_cancelled", count(loop.cancelled));
  metrics.add("sim.queue_high_water", count(loop.high_water));
  metrics.add("sim.ns_per_event", ratio(1e9 * run_s, events));
  metrics.add("sim.net.delivered", count(net.delivered));
  metrics.add("sim.net.forwarded", count(net.forwarded));
  metrics.add("sim.net.ttl_expired", count(net.ttl_expired));
  metrics.add("sim.net.link_down", count(net.link_down));
  metrics.add("sim.net.endpoint_down", count(net.endpoint_down));
  metrics.add("proc.allocs_run", allocs_run);
  metrics.add("proc.allocs_per_event", ratio(allocs_run, events));

  // The main counters again, at the span boundary that produced them.
  tracer.counter("core.engine_run", "events_processed", events);
  tracer.counter("core.engine_run", "decoys", decoys);
  tracer.counter("core.engine_run", "hits", count(result.hits.size()));
  tracer.counter("core.engine_run", "unsolicited", count(result.unsolicited.size()));
  tracer.counter("core.engine_run", "findings", count(result.findings.size()));
  tracer.counter("core.engine_run", "steals_completed", count(stats.steals_completed));
  tracer.counter("core.export", "bytes", count(json.size()));
#endif
  std::printf("%s\n", metrics.str().c_str());
  if (!options.spans_path.empty()) tracer.write(options.spans_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench_probe --workload clean_serial|clean_sharded|lossy_serial"
                 " --seed N [--export FILE] [--run-id ID] [--spans FILE]\n");
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "probe: %s\n", e.what());
    return 1;
  }
}
