/// The config table: every row sets the same member through the protocol
/// setter and the CLI text setter, round-trips through the snapshot codec,
/// and rejects each value past either end of its range on both surfaces
/// (integers beyond `int` included) instead of narrowing it.

#include "core/config_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/session_io.hpp"

namespace sisd::core {
namespace {

using serialize::JsonValue;

std::string Encoded(const MinerConfig& config) {
  return EncodeMinerConfig(config).Write();
}

bool OnProtocol(const ConfigKey& key) {
  return (key.surfaces & kProtocolConfig) != 0;
}

/// A valid value different from the key's default, as flag text (which is
/// also valid JSON for every type).
std::string NonDefaultText(const ConfigKey& key) {
  const std::string_view type = ConfigTypeName(key);
  if (type == "bool") return "true";
  if (key.range.ends_only) {
    return DescribeConfigDefault(key) == "0" ? "2" : "0";
  }
  if (type == "integer") return std::to_string(int64_t(key.range.min) + 1);
  return "0.375";
}

/// Sets `text` through the protocol setter (parsed as JSON) into `config`.
Status SetJson(const ConfigKey& key, const std::string& text,
               MinerConfig* config) {
  Result<JsonValue> json = JsonValue::Parse(text);
  if (!json.ok()) return json.status();
  return SetConfigFromJson(key.name, json.Value(), config);
}

/// Values past each end of `key`'s range, as text both setters read.
std::vector<std::string> OutOfRangeTexts(const ConfigKey& key) {
  const ConfigRange& r = key.range;
  std::vector<std::string> texts;
  if (ConfigTypeName(key) == "integer") {
    const int64_t min = int64_t(r.min);
    texts.push_back(std::to_string(min - 1));
    if (r.ends_only) {
      texts.push_back(std::to_string(min + 1));
      texts.push_back(std::to_string(int64_t(r.max) + 1));
    } else if (r.max == double(std::numeric_limits<int64_t>::max())) {
      texts.push_back("9223372036854775808");  // int64 max + 1
    } else {
      texts.push_back(std::to_string(int64_t(r.max) + 1));
    }
    // Beyond `int`: rejected by every row, not narrowed into range.
    texts.push_back("-4294967295");  // -2^32 + 1
    if (r.max <= double(std::numeric_limits<int>::max())) {
      texts.push_back("2147483648");  // 2^31
      texts.push_back("4294967297");  // 2^32 + 1
    }
    return texts;
  }
  texts.push_back(r.min_open ? "0" : std::to_string(r.min - 1));
  if (std::isfinite(r.max) && r.max < 1e300) {
    texts.push_back(std::to_string(r.max + 1));
  } else if (std::isfinite(r.max)) {
    texts.push_back("1e309");  // overflows to infinity
  }
  return texts;
}

TEST(ConfigTableTest, SurfacesKeepTheirKeySets) {
  size_t protocol = 0, mine = 0, list = 0;
  for (const ConfigKey& key : ConfigKeys()) {
    protocol += OnProtocol(key);
    mine += (key.surfaces & kCliMine) != 0;
    list += (key.surfaces & kCliList) != 0;
  }
  EXPECT_EQ(ConfigKeys().size(), 15u);
  EXPECT_EQ(protocol, 14u);
  EXPECT_EQ(mine, 14u);
  EXPECT_EQ(list, 14u);
}

TEST(ConfigTableTest, FlagIsDerivedFromName) {
  std::vector<std::string> flags;
  for (const ConfigKey& key : ConfigKeys()) flags.push_back(ConfigFlag(key));
  EXPECT_EQ(flags[0], "--beam-width");
  EXPECT_NE(std::find(flags.begin(), flags.end(), "--max-coverage-fraction"),
            flags.end());
  for (const std::string& flag : flags) {
    EXPECT_EQ(flag.find('_'), std::string::npos) << flag;
  }
}

TEST(ConfigTableTest, BothSettersAgreeAndRoundTripThroughTheSnapshot) {
  const std::string defaults = Encoded(MinerConfig());
  for (const ConfigKey& key : ConfigKeys()) {
    SCOPED_TRACE(std::string(key.name));
    const std::string text = NonDefaultText(key);
    MinerConfig from_text;
    ASSERT_TRUE(SetConfigFromText(key, text, &from_text).ok());
    ASSERT_TRUE(ValidateMinerConfig(from_text).ok());
    EXPECT_NE(Encoded(from_text), defaults) << "value did not change";

    MinerConfig from_json;
    const Status json_status = SetJson(key, text, &from_json);
    if (OnProtocol(key)) {
      ASSERT_TRUE(json_status.ok()) << json_status.ToString();
      EXPECT_EQ(Encoded(from_json), Encoded(from_text));
    } else {
      EXPECT_EQ(json_status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(Encoded(from_json), defaults);
    }

    Result<MinerConfig> decoded = DecodeMinerConfig(EncodeMinerConfig(
        from_text));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(Encoded(decoded.Value()), Encoded(from_text));
  }
}

TEST(ConfigTableTest, ValuesPastEitherEndAreRejectedOnBothSurfaces) {
  const std::string defaults = Encoded(MinerConfig());
  for (const ConfigKey& key : ConfigKeys()) {
    if (ConfigTypeName(key) == "bool") continue;
    for (const std::string& text : OutOfRangeTexts(key)) {
      SCOPED_TRACE(std::string(key.name) + " = " + text);
      MinerConfig config;
      const Status cli = SetConfigFromText(key, text, &config);
      EXPECT_EQ(cli.code(), StatusCode::kInvalidArgument) << cli.ToString();
      EXPECT_EQ(Encoded(config), defaults) << "rejected value was stored";
      if (!OnProtocol(key)) continue;
      const Status protocol = SetJson(key, text, &config);
      EXPECT_EQ(protocol.code(), StatusCode::kInvalidArgument)
          << protocol.ToString();
      EXPECT_EQ(Encoded(config), defaults) << "rejected value was stored";
    }
  }
}

TEST(ConfigTableTest, NanIsRejectedByEveryNumberKey) {
  for (const ConfigKey& key : ConfigKeys()) {
    if (ConfigTypeName(key) != "number") continue;
    SCOPED_TRACE(std::string(key.name));
    MinerConfig config;
    EXPECT_FALSE(SetConfigFromText(key, "nan", &config).ok());
    if (OnProtocol(key)) {
      EXPECT_FALSE(SetJson(key, "\"NaN\"", &config).ok());
    }
  }
}

TEST(ConfigTableTest, RangeEndsAreAccepted) {
  MinerConfig config;
  for (const auto& [name, text] :
       std::vector<std::pair<std::string, std::string>>{
           {"beam_width", "2147483647"},
           {"max_depth", "1"},
           {"max_coverage_fraction", "1"},
           {"time_budget", "\"Infinity\""},
           {"spread_sparsity", "2"},
           {"list_alpha", "0"}}) {
    SCOPED_TRACE(name);
    Result<JsonValue> json = JsonValue::Parse(text);
    ASSERT_TRUE(json.ok());
    EXPECT_TRUE(SetConfigFromJson(name, json.Value(), &config).ok());
  }
  EXPECT_EQ(config.search.beam_width, 2147483647);
  EXPECT_EQ(config.spread_sparsity, 2);
  EXPECT_TRUE(std::isinf(config.search.time_budget_seconds));
}

TEST(ConfigTableTest, ValidationChecksEveryRowAndTheCrossKeyRule) {
  MinerConfig config;
  EXPECT_TRUE(ValidateMinerConfig(config).ok());
  config.search.num_threads = 257;
  EXPECT_EQ(ValidateMinerConfig(config).code(), StatusCode::kInvalidArgument);
  config = MinerConfig();
  config.search.top_k = size_t(-1);
  EXPECT_EQ(ValidateMinerConfig(config).code(), StatusCode::kInvalidArgument);
  config = MinerConfig();
  config.spread_sparsity = 1;
  EXPECT_EQ(ValidateMinerConfig(config).code(), StatusCode::kInvalidArgument);
  config = MinerConfig();
  config.dl.gamma = 0.0;
  config.dl.eta = 0.0;
  EXPECT_EQ(ValidateMinerConfig(config).code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTableTest, UnknownAndMistypedProtocolKeysAreRejected) {
  MinerConfig config;
  EXPECT_EQ(SetConfigFromJson("beam", JsonValue::Int(8), &config).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SetConfigFromJson("beam_width", JsonValue::Str("8"), &config).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SetConfigFromJson("beam_width", JsonValue::Double(8.5), &config).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SetConfigFromJson("exclusions", JsonValue::Int(1), &config).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(Encoded(config), Encoded(MinerConfig()));
}

}  // namespace
}  // namespace sisd::core
