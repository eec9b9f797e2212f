#include "core/json_export.h"

#include <gtest/gtest.h>

#include "core/campaign_engine.h"
#include "shadow/profiles.h"

namespace shadowprobe::core {
namespace {

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("quote\" backslash\\ newline\n tab\t");
  json.key("count").value(42);
  json.key("pi").value(3.25);
  json.key("flag").value(true);
  json.key("nothing").null();
  json.key("list").begin_array().value(1).value(2).value("x").end_array();
  json.key("nested").begin_object().key("inner").value(-7).end_object();
  json.end_object();
  EXPECT_TRUE(json.complete());
  EXPECT_EQ(json.str(),
            "{\"name\":\"quote\\\" backslash\\\\ newline\\n tab\\t\","
            "\"count\":42,\"pi\":3.25,\"flag\":true,\"nothing\":null,"
            "\"list\":[1,2,\"x\"],\"nested\":{\"inner\":-7}}");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter json;
  json.begin_object();
  json.key("empty_list").begin_array().end_array();
  json.key("empty_obj").begin_object().end_object();
  json.end_object();
  EXPECT_EQ(json.str(), "{\"empty_list\":[],\"empty_obj\":{}}");
}

TEST(JsonWriter, ControlCharactersEscapedAsUnicode) {
  JsonWriter json;
  json.begin_object();
  json.key("ctrl").value(std::string_view("\x01", 1));
  json.end_object();
  EXPECT_EQ(json.str(), "{\"ctrl\":\"\\u0001\"}");
}

TEST(JsonWriter, TopLevelArray) {
  JsonWriter json;
  json.begin_array();
  json.begin_object().key("a").value(1).end_object();
  json.begin_object().key("b").value(2).end_object();
  json.end_array();
  EXPECT_EQ(json.str(), "[{\"a\":1},{\"b\":2}]");
  EXPECT_TRUE(json.complete());
}

TEST(ExportCampaignJson, ProducesParseableStructure) {
  TestbedConfig config;
  config.topology.seed = 81;
  config.topology.global_vps = 6;
  config.topology.cn_vps = 6;
  config.topology.web_sites = 4;
  CampaignConfig campaign_config;
  campaign_config.phase1_window = 2 * kHour;
  campaign_config.phase2_grace = 6 * kHour;
  campaign_config.total_duration = 5 * kDay;
  shadow::ShadowConfig shadow_config;
  shadow_config.fleet_size = 2;
  CampaignEngine engine(config, campaign_config, 1,
                        shadow::standard_exhibitors(shadow_config));
  CampaignResult result = engine.run();

  std::string json = export_campaign_json(engine.primary(), result);
  // Structural sanity: balanced braces/brackets outside strings, and the
  // sections analysts rely on are present.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  for (const char* section :
       {"\"config\":", "\"screening\":", "\"volume\":", "\"resolver_h\":",
        "\"path_ratios\":", "\"observer_locations\":", "\"observer_ases\":",
        "\"interval_cdf_dns\":", "\"retention\":", "\"incentives\":"}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  // Ground-truth headline present in the data.
  EXPECT_NE(json.find("Yandex"), std::string::npos);
}

}  // namespace
}  // namespace shadowprobe::core
