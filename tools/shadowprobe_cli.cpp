// shadowprobe CLI: run the full measurement campaign from the command line
// and print reports or export JSON.
//
//   shadowprobe_cli run [options]
//   shadowprobe_cli --shard-worker     (internal: campaign worker process;
//                                       speaks the wire protocol on
//                                       stdin/stdout, spawned by --shard-procs)
//
//   options:
//     --scale X            platform scale multiplier (default 1.0)
//     --seed N             master seed (default 20240301)
//     --days N             capture horizon in simulated days (default 25)
//     --shards N           run the campaign engine with N VP partitions
//                          (default: SHADOWPROBE_SHARDS env var, else 1);
//                          results are byte-identical for any N
//     --shard-procs P      distribute the shards over P worker processes
//                          (default: SHADOWPROBE_SHARD_PROCS env var, else
//                          in-process threads); results are byte-identical
//                          to the in-process run for any P
//     --worker-retries N   respawn budget per lost worker process before its
//                          shards degrade to in-process execution (default:
//                          SHADOWPROBE_WORKER_RETRIES env var, else 2);
//                          recovery never changes campaign output
//     --analysis-workers N worker threads for the post-barrier pipeline
//                          (classification + analysis tables; default:
//                          SHADOWPROBE_ANALYSIS_WORKERS env var, else 1);
//                          results are byte-identical for any N
//     --fault-profile S    deterministic fault-injection spec, e.g.
//                          "lossy" or "loss=0.05,hp-outage=US@30h+12h"
//                          (default: SHADOWPROBE_FAULT_PROFILE env var, else
//                          none); results are byte-identical for any shard
//                          count
//     --transport T        dns decoy transport: plain | dot | odoh
//     --ech                send TLS decoys with Encrypted Client Hello
//     --no-screening       skip the Appendix-E platform screens
//     --report R           all | fig3 | table2 | table3 | retention (default all)
//     --json FILE          write the full analysis as JSON
//     --trace N            print the first N packets crossing the CN gateway
//                          (shard 0's instance)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/cli.h"
#include "core/json_export.h"
#include "core/report.h"
#include "core/shard_worker.h"
#include "shadow/profiles.h"
#include "sim/trace.h"

using namespace shadowprobe;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: shadowprobe_cli run [--scale X] [--seed N] [--days N]\n"
               "         [--shards N] [--shard-procs P] [--worker-retries N]\n"
               "         [--scheduler static|steal]\n"
               "         [--analysis-workers N]\n"
               "         [--fault-profile SPEC]\n"
               "         [--transport plain|dot|odoh] [--ech]\n"
               "         [--no-screening]\n"
               "         [--report all|fig3|table2|table3|retention] [--json FILE]\n"
               "         [--trace N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--shard-worker") == 0) {
    // Worker mode: the controller process speaks the wire protocol to us on
    // stdin/stdout. The decorator must match the one `run` uses below so
    // both sides instantiate the same ground-truth deployment.
    core::ShardWorkerOptions worker_options;
    // --spawn-gen N: which incarnation of this worker slot we are (the
    // supervisor increments it per respawn; the test fault harness keys off
    // it). Absent for a hand-launched worker.
    for (int i = 2; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--spawn-gen") == 0) {
        worker_options.spawn_gen = std::atoi(argv[i + 1]);
      }
    }
    return core::run_shard_worker(0, 1, shadow::standard_exhibitors(), worker_options);
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage();
  std::vector<std::string> args(argv + 2, argv + argc);
  auto parsed = core::parse_cli_options(args, core::CliEnvironment::from_process());
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error().message.c_str());
    return usage();
  }
  const core::CliOptions& options = parsed.value();

  core::TestbedConfig config;
  config.topology.seed = options.seed;
  config.topology.apply_scale(options.scale);

  core::CampaignConfig campaign_config;
  campaign_config.total_duration = static_cast<SimDuration>(options.days) * kDay;
  campaign_config.dns_transport = options.transport;
  campaign_config.tls_decoys_use_ech = options.ech;
  campaign_config.screening = options.screening;
  campaign_config.analysis_workers = options.analysis_workers;
  campaign_config.faults = options.faults;

  sim::TraceRecorder trace;  // outlives the engine whose network it taps

  // worker_exe left empty: the backend re-execs this binary via
  // /proc/self/exe (argv[0] may be PATH-relative).
  core::EngineExec exec;
  exec.shard_procs = options.shard_procs;
  exec.scheduler = options.scheduler;
  exec.supervision.worker_retries = options.worker_retries;
  exec.supervision.heartbeat_ms = options.worker_heartbeat_ms;
  exec.supervision.stall_timeout_ms = options.worker_stall_ms;
  core::CampaignEngine engine(config, campaign_config, options.shards,
                              shadow::standard_exhibitors(), exec);
  // The substrate the reports and the export read from.
  core::Testbed& context = engine.primary();
  if (options.trace > 0) {
    context.net().add_tap(context.topology().national_gateway("CN"), &trace);
  }
  core::CampaignResult result = engine.run();

  // Every table the printers and the JSON export need, computed once.
  core::CampaignAnalysis analysis =
      core::analyze_campaign(context, result, options.analysis_workers);

  core::print_reports(options.report, result, analysis);

  if (options.trace > 0) {
    std::printf("first packets across the CN national gateway:\n%s\n",
                trace.dump(static_cast<std::size_t>(options.trace)).c_str());
  }

  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
      return 1;
    }
    out << core::export_campaign_json(context, result, analysis);
    std::printf("wrote %s\n", options.json_path.c_str());
  }
  return 0;
}
