// Shared harness for the per-table/figure reproduction benches.
//
// Every bench binary runs the same pipeline — build the substrate, deploy
// the ground-truth exhibitors, run the two-phase campaign on a one-shard
// CampaignEngine — then prints its table or figure next to the paper's
// reference values. Scale and seed come from SHADOWPROBE_SCALE /
// SHADOWPROBE_SEED (see README).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/campaign_engine.h"
#include "core/report.h"
#include "shadow/profiles.h"

namespace shadowprobe::bench {

struct BenchWorld {
  core::TestbedConfig config;
  std::unique_ptr<core::CampaignEngine> engine;
  core::CampaignResult result;

  /// The testbed the campaign ran on (geo database, blocklist, signatures).
  [[nodiscard]] core::Testbed& bed() const { return engine->primary(); }
  [[nodiscard]] core::PathRatioTable ratios() const {
    return core::path_ratios(result.ledger, result.unsolicited);
  }
  /// Resolver_h as the pipeline derives it (top-5 by problematic ratio).
  [[nodiscard]] std::vector<std::string> resolver_h() const {
    return core::top_shadowed_resolvers(ratios(), 5);
  }
};

/// Runs the standard campaign at the environment-configured scale.
BenchWorld run_standard_campaign(const std::string& bench_name);

/// Prints a "paper vs measured" line in a uniform format.
void paper_line(const std::string& what, const std::string& paper,
                const std::string& measured);

}  // namespace shadowprobe::bench
