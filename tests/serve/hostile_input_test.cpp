// Client input must never abort the server. Each case replays a request
// script (or a tampered snapshot) that used to trip an engine
// precondition check — beam_width / max_depth of 0 reached
// `SISD_CHECK` inside the beam search, gamma < 0 produced SI = inf — and
// asserts a clean `ok:false` instead, with the server still answering
// afterwards.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "core/session.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/json.hpp"
#include "serialize/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

/// Runs `script` through the stream transport; one parsed response per
/// answered line.
std::vector<serialize::ProtocolResponse> RunScript(SessionManager& manager,
                                                   const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(manager, in, out);
  std::vector<serialize::ProtocolResponse> responses;
  for (const std::string& line : SplitString(out.str(), '\n')) {
    if (line.empty()) continue;
    Result<serialize::ProtocolResponse> parsed =
        serialize::ParseResponseLine(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok()) responses.push_back(std::move(parsed).MoveValue());
  }
  return responses;
}

std::string OpenWithConfig(const std::string& config) {
  return "{\"id\":1,\"verb\":\"open\",\"session\":\"h\","
         "\"scenario\":\"synthetic\",\"config\":" +
         config + "}\n";
}

TEST(HostileInputTest, ConfigsThatUsedToAbortMiningAreRejectedAtOpen) {
  for (const std::string config :
       {"{\"beam_width\":0}", "{\"max_depth\":0}"}) {
    SCOPED_TRACE(config);
    SessionManager manager((ServeConfig()));
    const std::vector<serialize::ProtocolResponse> responses = RunScript(
        manager, OpenWithConfig(config) +
                     "{\"id\":2,\"verb\":\"mine\",\"session\":\"h\"}\n"
                     "{\"id\":3,\"verb\":\"stats\"}\n");
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_EQ(responses[0].error.code(), StatusCode::kInvalidArgument);
    // The session never opened, so mine has nothing to run on.
    EXPECT_FALSE(responses[1].ok);
    EXPECT_EQ(responses[1].error.code(), StatusCode::kNotFound);
    EXPECT_TRUE(responses[2].ok) << "server stopped answering";
  }
}

TEST(HostileInputTest, EveryInvalidConfigFieldAnswersInvalidArgument) {
  for (const std::string config :
       {"{\"splits\":0}", "{\"splits\":-3}", "{\"top_k\":0}",
        "{\"gamma\":-1}", "{\"eta\":-0.5}", "{\"gamma\":0,\"eta\":0}",
        "{\"max_coverage_fraction\":0}", "{\"max_coverage_fraction\":1.5}",
        "{\"time_budget\":-1}",
        // Beyond `int`: once narrowed into range (4294967297 -> 1).
        "{\"beam_width\":4294967297}", "{\"max_depth\":-4294967295}",
        "{\"splits\":4294967300}", "{\"top_k\":-1}",
        "{\"spread_sparsity\":7}", "{\"list_alpha\":-5}",
        "{\"list_beta\":\"NaN\"}"}) {
    SCOPED_TRACE(config);
    SessionManager manager((ServeConfig()));
    const std::vector<serialize::ProtocolResponse> responses =
        RunScript(manager, OpenWithConfig(config));
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(responses[0].ok);
    EXPECT_EQ(responses[0].error.code(), StatusCode::kInvalidArgument);
  }
  // The catalog-addressed open validates before it pins the dataset.
  SessionManager manager((ServeConfig()));
  const std::vector<serialize::ProtocolResponse> responses = RunScript(
      manager,
      "{\"id\":1,\"verb\":\"dataset_load\",\"scenario\":\"synthetic\","
      "\"name\":\"d\"}\n"
      "{\"id\":2,\"verb\":\"open\",\"session\":\"h\",\"dataset_ref\":\"d\","
      "\"config\":{\"beam_width\":0}}\n"
      "{\"id\":3,\"verb\":\"dataset_drop\",\"dataset\":\"d\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[1].error.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].ok) << "a rejected open left the dataset pinned";
}

TEST(HostileInputTest, SnapshotWithZeroBeamWidthFailsToRestore) {
  core::MinerConfig config;
  config.search.beam_width = 8;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  Result<core::MiningSession> session = core::MiningSession::Create(
      datagen::MakeScenarioDataset("synthetic").Value(), config);
  ASSERT_TRUE(session.ok());
  std::string snapshot = session.Value().SaveToString();
  const size_t at = snapshot.find("\"beam_width\":8");
  ASSERT_NE(at, std::string::npos);
  snapshot.replace(at, 14, "\"beam_width\":0");

  Result<core::MiningSession> restored =
      core::MiningSession::RestoreFromString(snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(HostileInputTest, SnapshotWithOutOfRangeIntegersFailsToRestore) {
  core::MinerConfig config;
  config.search.beam_width = 8;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  Result<core::MiningSession> session = core::MiningSession::Create(
      datagen::MakeScenarioDataset("synthetic").Value(), config);
  ASSERT_TRUE(session.ok());
  const std::string snapshot = session.Value().SaveToString();
  // 4294967297 used to restore as beam width 1; sparsity 7 used to
  // restore and silently mine dense spread directions.
  for (const auto& [field, tampered] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"beam_width\":8", "\"beam_width\":4294967297"},
           {"\"spread_sparsity\":0", "\"spread_sparsity\":7"}}) {
    SCOPED_TRACE(tampered);
    std::string text = snapshot;
    const size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, field.size(), tampered);
    Result<core::MiningSession> restored =
        core::MiningSession::RestoreFromString(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HostileInputTest, TamperedSpillSnapshotAnswersOkFalseOnMine) {
  const std::string spill_dir = "/tmp/sisd_hostile_input_spill";
  ASSERT_EQ(std::system(("rm -rf " + spill_dir + " && mkdir -p " +
                         spill_dir).c_str()),
            0);
  ServeConfig serve_config;
  serve_config.spill_dir = spill_dir;
  SessionManager manager(serve_config);
  std::vector<serialize::ProtocolResponse> responses = RunScript(
      manager,
      OpenWithConfig("{\"beam_width\":8,\"max_depth\":2,\"top_k\":20,"
                     "\"min_coverage\":5}") +
          "{\"id\":2,\"verb\":\"evict\",\"session\":\"h\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[1].ok);

  const std::string path = manager.SpillPathFor("h");
  Result<std::string> text = serialize::ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << path;
  std::string snapshot = text.Value();
  const size_t at = snapshot.find("\"beam_width\":8");
  ASSERT_NE(at, std::string::npos);
  snapshot.replace(at, 14, "\"beam_width\":0");
  ASSERT_TRUE(serialize::WriteTextFile(path, snapshot).ok());

  responses = RunScript(manager,
                        "{\"id\":3,\"verb\":\"mine\",\"session\":\"h\"}\n"
                        "{\"id\":4,\"verb\":\"stats\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_TRUE(responses[1].ok) << "server stopped answering";
  std::system(("rm -rf " + spill_dir).c_str());
}

TEST(HostileInputTest, NonFiniteCellsNeverReachANumericColumn) {
  SessionManager manager((ServeConfig()));
  // `x` spells NaN and +-inf in several ways: it loads as a categorical
  // column (an equality condition on the text 'inf' assimilates), and the
  // pool build and a mine run on it.
  std::string csv = "x,y,t\n";
  const char* spellings[6] = {"inf", "NAN", "-Infinity", "-nan", "2.5", "1"};
  for (int i = 0; i < 60; ++i) {
    csv += std::string(spellings[i % 6]) + "," + std::to_string(i % 9) + "," +
           std::to_string(0.1 * (i % 13)) + "\n";
  }
  serialize::JsonValue load = serialize::JsonValue::Object();
  load.Set("id", serialize::JsonValue::Int(1));
  load.Set("verb", serialize::JsonValue::Str("dataset_load"));
  load.Set("name", serialize::JsonValue::Str("odd"));
  load.Set("csv_text", serialize::JsonValue::Str(csv));
  serialize::JsonValue targets = serialize::JsonValue::Array();
  targets.Append(serialize::JsonValue::Str("t"));
  load.Set("targets", targets);
  // The same table with the non-finite spellings in the target column.
  std::string bad_target_csv = "y,t\n";
  for (int i = 0; i < 12; ++i) {
    bad_target_csv += std::to_string(i) + "," + spellings[i % 6] + "\n";
  }
  serialize::JsonValue bad_load = serialize::JsonValue::Object();
  bad_load.Set("id", serialize::JsonValue::Int(2));
  bad_load.Set("verb", serialize::JsonValue::Str("dataset_load"));
  bad_load.Set("name", serialize::JsonValue::Str("bad"));
  bad_load.Set("csv_text", serialize::JsonValue::Str(bad_target_csv));
  bad_load.Set("targets", targets);

  std::vector<serialize::ProtocolResponse> responses = RunScript(
      manager,
      load.Write() + "\n" + bad_load.Write() + "\n" +
          "{\"id\":3,\"verb\":\"open\",\"session\":\"h\","
          "\"dataset_ref\":\"odd\",\"config\":{\"beam_width\":4,"
          "\"max_depth\":2,\"min_coverage\":3}}\n"
          "{\"id\":4,\"verb\":\"assimilate\",\"session\":\"h\","
          "\"conditions\":[{\"attribute\":\"x\",\"op\":\"=\","
          "\"level\":\"inf\"}]}\n"
          "{\"id\":5,\"verb\":\"mine\",\"session\":\"h\"}\n"
          // Appends: a non-finite CSV cell in the numeric `y`, in the
          // target, and a JSON number that overflows to inf.
          "{\"id\":6,\"verb\":\"dataset_append\",\"dataset\":\"odd\","
          "\"csv_text\":\"x,y,t\\n2.5,-Infinity,0.5\\n\"}\n"
          "{\"id\":7,\"verb\":\"dataset_append\",\"dataset\":\"odd\","
          "\"csv_text\":\"x,y,t\\ninf,3,NAN\\n\"}\n"
          "{\"id\":8,\"verb\":\"dataset_append\",\"dataset\":\"odd\","
          "\"columns\":[\"x\",\"y\",\"t\"],\"rows\":[[\"inf\",1e400,0.5]]}\n"
          "{\"id\":9,\"verb\":\"stats\"}\n");
  ASSERT_EQ(responses.size(), 9u);
  EXPECT_TRUE(responses[0].ok) << responses[0].error.ToString();
  EXPECT_FALSE(responses[1].ok) << "a non-finite target column loaded";
  EXPECT_TRUE(responses[2].ok) << responses[2].error.ToString();
  EXPECT_TRUE(responses[3].ok) << "x must be categorical: "
                               << responses[3].error.ToString();
  // A mine may exhaust, but it answers.
  EXPECT_TRUE(responses[4].ok ||
              responses[4].error.code() == StatusCode::kNotFound)
      << responses[4].error.ToString();
  for (size_t i = 5; i < 8; ++i) {
    EXPECT_FALSE(responses[i].ok) << "append " << i << " took a non-finite";
    EXPECT_EQ(responses[i].error.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(responses[i].error.message().find("row 0"), std::string::npos)
        << responses[i].error.message();
  }
  EXPECT_NE(responses[5].error.message().find("'y'"), std::string::npos);
  EXPECT_NE(responses[6].error.message().find("'t'"), std::string::npos);
  EXPECT_NE(responses[7].error.message().find("'y'"), std::string::npos);
  EXPECT_TRUE(responses[8].ok) << "server stopped answering";
}

}  // namespace
}  // namespace sisd::serve
