// Multi-process campaign execution: the exported JSON must be byte-identical
// between the in-process backend and any worker-process layout, with and
// without a fault profile — and, since the supervision layer, regardless of
// which workers die, stall, or corrupt the stream mid-campaign. A lost
// worker is respawned (bounded retries) or degraded to an in-process thread;
// either way the campaign completes with identical output, every child is
// reaped, and no descriptor leaks.
//
// The worker re-execs shadowprobe_cli --shard-worker, which always applies
// the binary's default decorator (deploy_standard_exhibitors with a default
// ShadowConfig) — so the engines here use that exact decorator, not the
// trimmed fleet other engine tests use. SHADOWPROBE_WORKER_BIN is injected
// by the build as the path to the freshly built CLI.
//
// Faults are injected with SHADOWPROBE_TEST_WORKER_FAULT =
// "<phase>:<kind>:<proc>[:<gen>|:*]" (see shard_worker.cpp); by default only
// generation 0 faults, so the respawned replacement recovers, while ":*"
// wedges every incarnation and forces the in-process degradation path.
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <dirent.h>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <tuple>
#include <unistd.h>

#include "core/campaign_engine.h"
#include "core/json_export.h"
#include "shadow/profiles.h"

namespace shadowprobe::core {
namespace {

#ifndef SHADOWPROBE_WORKER_BIN
#define SHADOWPROBE_WORKER_BIN ""
#endif

const char* worker_bin() { return SHADOWPROBE_WORKER_BIN; }

bool worker_bin_available() {
  return worker_bin()[0] != '\0' && ::access(worker_bin(), X_OK) == 0;
}

TestbedConfig small_config(std::uint64_t seed = 61) {
  TestbedConfig config;
  config.topology.seed = seed;
  config.topology.global_vps = 6;
  config.topology.cn_vps = 6;
  config.topology.web_sites = 4;
  return config;
}

CampaignConfig fast_campaign() {
  CampaignConfig config;
  config.phase1_window = 2 * kHour;
  config.phase2_grace = 4 * kHour;
  config.phase2_window = 2 * kHour;
  config.total_duration = 3 * kDay;
  return config;
}

/// The decorator the worker binary applies — default ShadowConfig, exactly
/// as `shadowprobe_cli run`/`--shard-worker` do.
CampaignEngine::Decorator cli_exhibitors() {
  return [](Testbed& replica) -> std::shared_ptr<void> {
    shadow::ShadowConfig shadow_config;
    return std::make_shared<shadow::ShadowDeployment>(
        shadow::deploy_standard_exhibitors(replica, shadow_config));
  };
}

/// Supervision tuned for tests: tight heartbeat so stall detection fires in
/// ~a second, near-zero backoff so respawns don't pad the run time.
SupervisionConfig fast_supervision() {
  SupervisionConfig sup;
  sup.worker_retries = 2;
  sup.heartbeat_ms = 25;
  sup.stall_timeout_ms = 1000;
  sup.backoff_base_ms = 5;
  return sup;
}

struct EngineRun {
  std::string json;
  ShardExecutionStats stats;
};

EngineRun run_engine(int shards, int procs, const CampaignConfig& campaign,
                     const std::string& exe, const SupervisionConfig& sup) {
  EngineExec exec;
  exec.shard_procs = procs;
  exec.worker_exe = procs >= 1 ? exe : "";
  exec.supervision = sup;
  CampaignEngine engine(small_config(), campaign, shards, cli_exhibitors(), exec);
  CampaignResult result = engine.run();
  EngineRun run;
  run.json = export_campaign_json(engine.primary(), result);
  run.stats = result.shard_stats;
  return run;
}

std::string run_and_export(int shards, int procs, const CampaignConfig& campaign) {
  return run_engine(shards, procs, campaign, worker_bin(), fast_supervision()).json;
}

int open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Every child reaped: a waitpid sweep finds no zombies (and no live
/// children at all — degraded worker threads are joined, processes waited).
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

/// Scoped SHADOWPROBE_TEST_WORKER_FAULT so a failing assertion can't leak
/// the fault spec into later tests in the same process.
class ScopedFault {
 public:
  explicit ScopedFault(const std::string& spec) {
    ::setenv("SHADOWPROBE_TEST_WORKER_FAULT", spec.c_str(), 1);
  }
  ~ScopedFault() { ::unsetenv("SHADOWPROBE_TEST_WORKER_FAULT"); }
};

TEST(MultiprocessCampaign, JsonByteIdenticalToInProcessAcrossLayouts) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  CampaignConfig campaign = fast_campaign();
  std::string in_process = run_and_export(4, 0, campaign);
  ASSERT_FALSE(in_process.empty());
  // One worker still exercises the full wire protocol; four puts one shard
  // in each process.
  EXPECT_EQ(in_process, run_and_export(4, 1, campaign));
  EXPECT_EQ(in_process, run_and_export(4, 2, campaign));
  EXPECT_EQ(in_process, run_and_export(4, 4, campaign));
}

TEST(MultiprocessCampaign, SingleShardSingleWorkerMatchesInProcess) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  CampaignConfig campaign = fast_campaign();
  EXPECT_EQ(run_and_export(1, 0, campaign), run_and_export(1, 1, campaign));
}

TEST(MultiprocessCampaign, JsonByteIdenticalUnderFaultProfile) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  CampaignConfig campaign = fast_campaign();
  auto profile = sim::FaultProfile::parse("loss=0.05,jitter=10ms,retries=2,rto=30s");
  ASSERT_TRUE(profile.ok()) << profile.error().message;
  campaign.faults = profile.value();
  std::string in_process = run_and_export(4, 0, campaign);
  ASSERT_FALSE(in_process.empty());
  EXPECT_NE(in_process.find("\"fault_profile\""), std::string::npos);
  EXPECT_EQ(in_process, run_and_export(4, 2, campaign));
  EXPECT_EQ(in_process, run_and_export(4, 4, campaign));
}

TEST(MultiprocessCampaign, MissingWorkerBinaryFailsConstruction) {
  // Supervision recovers from workers that die after launch; a binary that
  // cannot even be executed is a configuration error and still throws up
  // front, before any campaign work happens.
  EngineExec exec;
  exec.shard_procs = 2;
  exec.worker_exe = "/nonexistent/shadowprobe_worker";
  EXPECT_THROW(
      CampaignEngine(small_config(), fast_campaign(), 4, cli_exhibitors(), exec),
      std::runtime_error);
}

TEST(MultiprocessCampaign, WorkerProcsRecordedInShardStats) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  EngineExec exec;
  exec.shard_procs = 2;
  exec.worker_exe = worker_bin();
  CampaignEngine engine(small_config(), fast_campaign(), 4, cli_exhibitors(), exec);
  CampaignResult result = engine.run();
  EXPECT_EQ(result.shard_stats.worker_procs, 2);
  EXPECT_EQ(result.shard_stats.effective_shards, 4);
  EXPECT_EQ(result.shard_stats.per_shard.size(), 4u);
  for (const auto& stats : result.shard_stats.per_shard) EXPECT_GT(stats.processed, 0u);
  EXPECT_GT(engine.events_processed(), 0u);
}

// -- Supervision: workers that misbehave from the very first frame -----------

TEST(Supervision, CleanRunHasZeroRecoveryCounters) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  EngineRun run = run_engine(4, 2, fast_campaign(), worker_bin(), fast_supervision());
  EXPECT_EQ(run.stats.workers_lost, 0u);
  EXPECT_EQ(run.stats.workers_respawned, 0u);
  EXPECT_EQ(run.stats.workers_degraded, 0u);
  EXPECT_EQ(run.stats.shards_retried, 0u);
}

TEST(Supervision, ExitingWorkerRecoversViaDegradation) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  // /bin/false exits immediately, every incarnation: no replacement process
  // can ever come up, so both slots must exhaust their budget and degrade to
  // in-process execution — and the campaign output must not change. The
  // controller's writes land on sockets whose reader is already gone; the
  // process surviving those writes at all is the SIGPIPE regression check,
  // so pin the disposition to the default (terminate) rather than inheriting
  // whatever the test runner set.
  ::signal(SIGPIPE, SIG_DFL);
  CampaignConfig campaign = fast_campaign();
  std::string clean = run_and_export(4, 0, campaign);
  SupervisionConfig sup = fast_supervision();
  sup.worker_retries = 1;
  EngineRun run = run_engine(4, 2, campaign, "/bin/false", sup);
  EXPECT_EQ(clean, run.json);
  EXPECT_GE(run.stats.workers_lost, 2u);
  EXPECT_EQ(run.stats.workers_degraded, 2u);
  EXPECT_GE(run.stats.shards_retried, 4u);
  expect_no_children();
}

TEST(Supervision, BabblingWorkerRecoversViaDegradation) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  // /bin/cat echoes our own frames back: the controller reads a validly
  // framed message of an unexpected type. That is protocol corruption, not
  // results — the worker is lost (and, as cat never dies on its own, must
  // be killed and reaped by the supervisor), then the slot degrades.
  CampaignConfig campaign = fast_campaign();
  std::string clean = run_and_export(2, 0, campaign);
  SupervisionConfig sup = fast_supervision();
  sup.worker_retries = 0;  // degrade on first loss
  EngineRun run = run_engine(2, 1, campaign, "/bin/cat", sup);
  EXPECT_EQ(clean, run.json);
  EXPECT_GE(run.stats.workers_lost, 1u);
  EXPECT_EQ(run.stats.workers_respawned, 0u);
  EXPECT_EQ(run.stats.workers_degraded, 1u);
  expect_no_children();
}

// -- Recovery matrix: phase x failure kind -----------------------------------
//
// Each case injects one failure into worker 1 of a 4-shard, 4-process
// campaign at the moment the named phase command arrives — after the worker
// has already contributed results to every earlier phase. The campaign must
// complete with JSON byte-identical to the clean in-process run, report the
// recovery in its counters, reap every child, and leak no descriptors.

// std::string rather than const char*, so the parameter gtest prints into
// the discovered test name carries no per-run pointer address.
class RecoveryMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(RecoveryMatrix, ByteIdenticalAfterWorkerLoss) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  const auto& [phase, kind] = GetParam();
  CampaignConfig campaign = fast_campaign();
  std::string clean = run_and_export(4, 0, campaign);
  ASSERT_FALSE(clean.empty());
  const int fds_before = open_fd_count();
  ScopedFault fault(phase + ":" + kind + ":1");
  EngineRun run = run_engine(4, 4, campaign, worker_bin(), fast_supervision());
  EXPECT_EQ(clean, run.json) << "recovered run diverged for " << phase << ":" << kind;
  // Generation 0 faults, generation 1 recovers: exactly one loss, one
  // respawn, and worker 1's single shard re-dispatched.
  EXPECT_EQ(run.stats.workers_lost, 1u);
  EXPECT_EQ(run.stats.workers_respawned, 1u);
  EXPECT_EQ(run.stats.workers_degraded, 0u);
  EXPECT_EQ(run.stats.shards_retried, 1u);
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds_before);
}

INSTANTIATE_TEST_SUITE_P(
    Recovery, RecoveryMatrix,
    ::testing::Combine(::testing::Values("screening", "phase1", "phase2"),
                       ::testing::Values("kill", "exit", "stall", "corrupt")),
    [](const ::testing::TestParamInfo<RecoveryMatrix::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      name += "_";
      name += std::get<1>(info.param);
      return name;
    });

TEST(Recovery, ExhaustedRetriesDegradeInProcessByteIdentically) {
  if (!worker_bin_available()) GTEST_SKIP() << "worker binary not built";
  // ":*" faults every incarnation: the replacement dies the same way during
  // replay, the budget runs out, and the slot must finish its shards on an
  // in-process degraded worker — still byte-identical.
  CampaignConfig campaign = fast_campaign();
  std::string clean = run_and_export(4, 0, campaign);
  const int fds_before = open_fd_count();
  ScopedFault fault("phase1:kill:1:*");
  SupervisionConfig sup = fast_supervision();
  sup.worker_retries = 1;
  EngineRun run = run_engine(4, 4, campaign, worker_bin(), sup);
  EXPECT_EQ(clean, run.json);
  EXPECT_EQ(run.stats.workers_lost, 2u);  // original + doomed replacement
  EXPECT_EQ(run.stats.workers_respawned, 1u);
  EXPECT_EQ(run.stats.workers_degraded, 1u);
  EXPECT_EQ(run.stats.shards_retried, 2u);
  expect_no_children();
  EXPECT_EQ(open_fd_count(), fds_before);
}

}  // namespace
}  // namespace shadowprobe::core
