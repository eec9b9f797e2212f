// JSON export of campaign results, for downstream analysis/plotting.
//
// A dependency-free streaming JSON writer plus one function that serializes
// everything the analyzers produce: the platform summary, path-ratio table,
// observer locations and ASes, temporal quantiles, outcome breakdowns,
// retention and incentive statistics.
#pragma once

#include <string>
#include <vector>

#include "core/analysis.h"

namespace shadowprobe::core {

/// Minimal streaming JSON writer with correct escaping and comma placement.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Key inside an object; must be followed by a value or container.
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(std::uint64_t number) {
    return value(static_cast<std::int64_t>(number));
  }
  JsonWriter& value(bool flag);
  JsonWriter& null();

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  /// True when every container has been closed.
  [[nodiscard]] bool complete() const noexcept { return depth_ == 0 && !out_.empty(); }

 private:
  void separator();
  void escape_into(std::string_view text);

  std::string out_;
  std::vector<bool> needs_comma_;  // per open container
  int depth_ = 0;
  bool pending_key_ = false;
};

/// Serializes the full analysis of a completed campaign. `bed` provides the
/// substrate context (config, geo database, signatures, blocklist); for a
/// sharded run pass CampaignEngine::primary(). For a fixed master seed the
/// output is byte-identical for any shard count and any analysis worker
/// count. `analysis` must come from analyze_campaign() over `result`.
std::string export_campaign_json(Testbed& bed, const CampaignResult& result,
                                 const CampaignAnalysis& analysis);

/// Computes the analysis bundle internally with `workers` scan threads.
std::string export_campaign_json(Testbed& bed, const CampaignResult& result,
                                 int workers = 1);

}  // namespace shadowprobe::core
