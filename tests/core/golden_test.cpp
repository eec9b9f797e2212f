// Golden byte-identity regression test.
//
// Runs a pinned small campaign (explicit config — deliberately independent
// of SHADOWPROBE_SCALE/SEED so the environment cannot shift the corpus) and
// compares the exported JSON byte-for-byte against the checked-in golden
// file. Any change to these bytes is a behaviour change: either a bug in a
// refactor that was supposed to be behaviour-preserving (the common case
// this test exists to catch — see the FlatMap/arena/interning overhaul), or
// an intentional model change, in which case regenerate with
//
//   SHADOWPROBE_REGEN_GOLDEN=1 ctest -R GoldenCampaign
//
// and review the JSON diff in the commit.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/campaign_engine.h"
#include "core/json_export.h"
#include "core/testbed.h"
#include "shadow/profiles.h"

namespace shadowprobe::core {
namespace {

#ifndef SHADOWPROBE_SOURCE_DIR
#error "core_tests must be compiled with SHADOWPROBE_SOURCE_DIR"
#endif

const char* golden_path() {
  return SHADOWPROBE_SOURCE_DIR "/tests/data/golden_campaign.json";
}

TestbedConfig pinned_config() {
  TestbedConfig config;
  // Pinned, not from_env(): the golden bytes encode exactly this substrate.
  config.topology.apply_scale(0.25);
  config.topology.seed = 20240301;
  return config;
}

CampaignConfig pinned_campaign() {
  CampaignConfig config;
  config.total_duration = 6 * kDay;
  return config;
}

std::string run_pinned(int shards) {
  CampaignEngine engine(pinned_config(), pinned_campaign(), shards,
                        shadow::standard_exhibitors());
  CampaignResult result = engine.run();
  return export_campaign_json(engine.primary(), result, /*analysis_workers=*/1);
}

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenCampaign, ExportMatchesCheckedInGolden) {
  std::string actual = run_pinned(/*shards=*/1);
  ASSERT_FALSE(actual.empty());

  if (std::getenv("SHADOWPROBE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path()
                               << " — regenerate with SHADOWPROBE_REGEN_GOLDEN=1";
  if (actual != golden) {
    std::size_t at = 0;
    while (at < actual.size() && at < golden.size() && actual[at] == golden[at]) ++at;
    FAIL() << "export diverges from golden at byte " << at << " (golden "
           << golden.size() << " bytes, actual " << actual.size()
           << " bytes); context: \""
           << golden.substr(at > 40 ? at - 40 : 0, 80) << "\" vs \""
           << actual.substr(at > 40 ? at - 40 : 0, 80) << "\"";
  }
}

TEST(GoldenCampaign, ShardedRunReproducesGoldenBytes) {
  std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path()
                               << " — regenerate with SHADOWPROBE_REGEN_GOLDEN=1";
  for (int shards : {2, 8}) {
    EXPECT_EQ(run_pinned(shards), golden)
        << shards << "-shard export differs from the golden bytes";
  }
}

}  // namespace
}  // namespace shadowprobe::core
