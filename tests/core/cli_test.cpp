// CLI option parsing: strict validation of every front-end knob.
#include "core/cli.h"

#include <gtest/gtest.h>

namespace shadowprobe::core {
namespace {

Result<CliOptions> parse(std::initializer_list<const char*> args,
                         const CliEnvironment& env = {}) {
  std::vector<std::string> vec;
  for (const char* arg : args) vec.emplace_back(arg);
  return parse_cli_options(vec, env);
}

TEST(CliTest, DefaultsMatchTheHistoricalBehaviour) {
  auto parsed = parse({});
  ASSERT_TRUE(parsed.ok());
  const CliOptions& options = parsed.value();
  EXPECT_DOUBLE_EQ(options.scale, 1.0);
  EXPECT_EQ(options.seed, 20240301u);
  EXPECT_EQ(options.days, 25);
  EXPECT_EQ(options.shards, 1);  // single-shard engine
  EXPECT_EQ(options.analysis_workers, 1);
  EXPECT_TRUE(options.screening);
  EXPECT_FALSE(options.ech);
  EXPECT_EQ(options.report, "all");
  EXPECT_FALSE(options.faults.enabled());
}

TEST(CliTest, ParsesTheFullOptionSet) {
  auto parsed = parse({"--scale", "0.5", "--seed", "7", "--days", "10", "--shards", "4",
                       "--analysis-workers", "2", "--fault-profile", "loss=0.1",
                       "--transport", "odoh", "--ech", "--no-screening", "--report",
                       "fig3", "--json", "/tmp/out.json", "--trace", "5"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const CliOptions& options = parsed.value();
  EXPECT_DOUBLE_EQ(options.scale, 0.5);
  EXPECT_EQ(options.seed, 7u);
  EXPECT_EQ(options.days, 10);
  EXPECT_EQ(options.shards, 4);
  EXPECT_EQ(options.analysis_workers, 2);
  EXPECT_DOUBLE_EQ(options.faults.link_loss, 0.1);
  EXPECT_EQ(options.transport, DnsDecoyTransport::kOblivious);
  EXPECT_TRUE(options.ech);
  EXPECT_FALSE(options.screening);
  EXPECT_EQ(options.report, "fig3");
  EXPECT_EQ(options.json_path, "/tmp/out.json");
  EXPECT_EQ(options.trace, 5);
}

TEST(CliTest, RejectsNonPositiveShards) {
  EXPECT_FALSE(parse({"--shards", "0"}).ok());
  EXPECT_FALSE(parse({"--shards", "-2"}).ok());
  auto bad = parse({"--shards", "abc"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("--shards"), std::string::npos);
}

TEST(CliTest, RejectsPartiallyNumericValues) {
  // atoi would have silently read "4x" as 4; the strict parser must not.
  EXPECT_FALSE(parse({"--shards", "4x"}).ok());
  EXPECT_FALSE(parse({"--days", "10.5"}).ok());
  EXPECT_FALSE(parse({"--seed", "12abc"}).ok());
}

TEST(CliTest, RejectsNonPositiveAnalysisWorkers) {
  EXPECT_FALSE(parse({"--analysis-workers", "0"}).ok());
  EXPECT_FALSE(parse({"--analysis-workers", "-1"}).ok());
  EXPECT_FALSE(parse({"--analysis-workers", "many"}).ok());
  EXPECT_TRUE(parse({"--analysis-workers", "8"}).ok());
}

TEST(CliTest, RejectsMalformedFaultProfiles) {
  auto bad = parse({"--fault-profile", "loss=2.0"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("--fault-profile"), std::string::npos);
  EXPECT_FALSE(parse({"--fault-profile", "bogus-preset"}).ok());
  EXPECT_FALSE(parse({"--fault-profile", "hp-outage=US"}).ok());
}

TEST(CliTest, RejectsBadScaleSeedTransportReportAndUnknowns) {
  EXPECT_FALSE(parse({"--scale", "0"}).ok());
  EXPECT_FALSE(parse({"--scale", "-1"}).ok());
  EXPECT_FALSE(parse({"--seed", "-5"}).ok());
  EXPECT_FALSE(parse({"--transport", "doq"}).ok());
  EXPECT_FALSE(parse({"--report", "fig9"}).ok());
  EXPECT_FALSE(parse({"--frobnicate"}).ok());
  EXPECT_FALSE(parse({"--shards"}).ok());  // missing value
}

TEST(CliTest, EnvironmentProvidesFallbacks) {
  CliEnvironment env;
  env.shards = "3";
  env.analysis_workers = "2";
  env.fault_profile = "lossy";
  auto parsed = parse({}, env);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().shards, 3);
  EXPECT_EQ(parsed.value().analysis_workers, 2);
  EXPECT_TRUE(parsed.value().faults.enabled());
}

TEST(CliTest, ExplicitFlagsOverrideTheEnvironment) {
  CliEnvironment env;
  env.shards = "3";
  env.fault_profile = "lossy";
  auto parsed = parse({"--shards", "8", "--fault-profile", "none"}, env);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().shards, 8);
  EXPECT_FALSE(parsed.value().faults.enabled());
}

TEST(CliTest, MalformedEnvironmentValuesAreRejectedWithTheirSource) {
  CliEnvironment env;
  env.shards = "zero";
  auto bad = parse({}, env);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("SHADOWPROBE_SHARDS"), std::string::npos);

  CliEnvironment env2;
  env2.fault_profile = "loss=nan";
  auto bad2 = parse({}, env2);
  ASSERT_FALSE(bad2.ok());
  EXPECT_NE(bad2.error().message.find("SHADOWPROBE_FAULT_PROFILE"), std::string::npos);
}

TEST(CliTest, SchedulerFlagAndEnvironment) {
  EXPECT_EQ(parse({}).value().scheduler, SchedulerMode::kSteal);  // the default
  EXPECT_EQ(parse({"--scheduler", "static"}).value().scheduler, SchedulerMode::kStatic);
  EXPECT_EQ(parse({"--scheduler", "steal"}).value().scheduler, SchedulerMode::kSteal);
  auto bad = parse({"--scheduler", "greedy"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("--scheduler"), std::string::npos);

  CliEnvironment env;
  env.scheduler = "static";
  EXPECT_EQ(parse({}, env).value().scheduler, SchedulerMode::kStatic);
  EXPECT_EQ(parse({"--scheduler", "steal"}, env).value().scheduler,
            SchedulerMode::kSteal);  // flag wins
  env.scheduler = "bogus";
  auto bad_env = parse({}, env);
  ASSERT_FALSE(bad_env.ok());
  EXPECT_NE(bad_env.error().message.find("SHADOWPROBE_SCHEDULER"), std::string::npos);
}

TEST(CliTest, ShardProcsClampedToShardCount) {
  // More workers than shards would idle the surplus; both spellings clamp.
  auto flag = parse({"--shards", "2", "--shard-procs", "8"});
  ASSERT_TRUE(flag.ok());
  EXPECT_EQ(flag.value().shard_procs, 2);

  CliEnvironment env;
  env.shards = "3";
  env.shard_procs = "5";
  auto fromenv = parse({}, env);
  ASSERT_TRUE(fromenv.ok());
  EXPECT_EQ(fromenv.value().shard_procs, 3);

  // Workers without an explicit shard count run the default single-shard
  // engine, and therefore a single worker.
  auto implied = parse({"--shard-procs", "4"});
  ASSERT_TRUE(implied.ok());
  EXPECT_EQ(implied.value().shards, 1);
  EXPECT_EQ(implied.value().shard_procs, 1);

  // In-range counts are untouched.
  auto exact = parse({"--shards", "4", "--shard-procs", "4"});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact.value().shard_procs, 4);
}

TEST(CliTest, FaultProfileImpliesTheEngine) {
  // An unsharded faulty invocation runs the default single-shard engine.
  auto parsed = parse({"--fault-profile", "loss=0.05"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().shards, 1);
  // An explicit shard count is kept.
  auto sharded = parse({"--fault-profile", "loss=0.05", "--shards", "4"});
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded.value().shards, 4);
}

}  // namespace
}  // namespace shadowprobe::core
