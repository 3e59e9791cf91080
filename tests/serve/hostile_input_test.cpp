// Client input must never abort the server. Each case replays a request
// script (or a tampered snapshot) that used to trip an engine
// precondition check — beam_width / max_depth of 0 reached
// `SISD_CHECK` inside the beam search, gamma < 0 produced SI = inf — and
// asserts a clean `ok:false` instead, with the server still answering
// afterwards. Numerically degenerate data is covered the same way.
//
// Snapshots store no model: a restore replays the history. So every
// history field is checked before the replay — an intention attribute out
// of range used to crash `sisd_cli export`, and a zero spread direction
// would abort the replay's normalization. A version-1 snapshot (the
// committed fixture, written before version 2) still stores its fitted
// models; tampering with them (a non-SPD covariance, a non-finite or
// asymmetric entry) must fail the restore, since the stored models must
// equal the replayed ones.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "core/session.hpp"
#include "data/csv.hpp"
#include "datagen/scenarios.hpp"
#include "linalg/matrix.hpp"
#include "serialize/json.hpp"
#include "serialize/protocol.hpp"
#include "serialize/snapshot.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"

#include "../core/snapshot_edit.hpp"

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

using testing::Json;
using testing::WithValueAt;

/// The version-1 fixture: `sisd_cli mine --scenario synthetic --iterations
/// 2 --top-k 5 --session-save`, written by a build before schema version
/// 2, inline dataset.
std::string V1Snapshot() {
  Result<std::string> text = serialize::ReadTextFile(SISD_V1_SNAPSHOT);
  EXPECT_TRUE(text.ok()) << SISD_V1_SNAPSHOT;
  return text.ok() ? text.Value() : std::string();
}

std::string OpenWithConfig(const std::string& config) {
  return "{\"id\":1,\"verb\":\"open\",\"session\":\"h\","
         "\"scenario\":\"synthetic\",\"config\":" +
         config + "}\n";
}

/// Edits one encoded parameter group of a snapshot's fitted model; `dim`
/// is the model's target dimension.
using GroupEdit = std::function<void(serialize::JsonValue* group, size_t dim)>;

/// Session snapshot `text` with `edit` applied to the fitted model's first
/// parameter group.
std::string WithFirstGroupEdited(const std::string& text,
                                 const GroupEdit& edit) {
  serialize::JsonValue root = serialize::JsonValue::Parse(text).Value();
  serialize::JsonValue assimilator = *root.Find("assimilator");
  serialize::JsonValue model = *assimilator.Find("model");
  const size_t dim = model.Find("dim")->GetSize().Value();
  serialize::JsonValue groups = serialize::JsonValue::Array();
  for (const serialize::JsonValue& group : model.Find("groups")->items()) {
    serialize::JsonValue entry = group;
    if (groups.size() == 0) edit(&entry, dim);
    groups.Append(std::move(entry));
  }
  model.Set("groups", std::move(groups));
  assimilator.Set("model", std::move(model));
  root.Set("assimilator", std::move(assimilator));
  return root.Write();
}

/// Session snapshot `text` with the fitted model's first group covariance
/// replaced by `-I` (not SPD). With `stale_factor`, the group also carries
/// the `factor` key that older snapshots stored.
std::string WithNonSpdSigma(const std::string& text, bool stale_factor) {
  return WithFirstGroupEdited(
      text, [stale_factor](serialize::JsonValue* group, size_t dim) {
        linalg::Matrix negative = linalg::Matrix::Identity(dim);
        negative *= -1.0;
        group->Set("sigma", serialize::EncodeMatrix(negative));
        if (stale_factor) {
          group->Set("factor",
                     serialize::EncodeMatrix(linalg::Matrix::Identity(dim)));
        }
      });
}

/// Sets the upper-triangle covariance entry (0,1) of the edited group.
GroupEdit SetSigmaUpper(double value) {
  return [value](serialize::JsonValue* group, size_t) {
    linalg::Matrix sigma =
        serialize::DecodeMatrix(*group->Find("sigma")).Value();
    sigma(0, 1) = value;
    group->Set("sigma", serialize::EncodeMatrix(sigma));
  };
}

/// Sets mean entry 0 of the edited group.
GroupEdit SetMu0(double value) {
  return [value](serialize::JsonValue* group, size_t) {
    linalg::Vector mu = serialize::DecodeVector(*group->Find("mu")).Value();
    mu[0] = value;
    group->Set("mu", serialize::EncodeVector(mu));
  };
}

/// Group tamperings the Cholesky factorization does not see: a NaN or a
/// wrong value in the covariance's upper triangle, and a NaN mean.
struct Tampering {
  const char* name;
  GroupEdit edit;
};
std::vector<Tampering> UnfactoredTamperings() {
  return {{"sigma(0,1) = NaN", SetSigmaUpper(std::nan(""))},
          {"sigma(0,1) = 1e6", SetSigmaUpper(1e6)},
          {"mu[0] = NaN", SetMu0(std::nan(""))}};
}

/// Opens a synthetic session on a fresh manager spilling to `spill_dir`,
/// mines once and evicts it. As a control, the spill file is then replaced
/// by `base` (kept as it is when `base` is empty) and `mine` must answer
/// ok: the spill path takes the untampered snapshot. After a second
/// eviction the spill file holds `tamper(base)`, and `mine` must answer
/// ok:false with the server still answering.
void ExpectTamperedSpillAnswersOkFalse(
    const std::string& spill_dir, const std::string& base,
    const std::function<std::string(const std::string&)>& tamper) {
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
          "{\"id\":2,\"verb\":\"mine\",\"session\":\"h\"}\n"
          "{\"id\":3,\"verb\":\"evict\",\"session\":\"h\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[1].ok) << responses[1].error.ToString();
  ASSERT_TRUE(responses[2].ok) << responses[2].error.ToString();

  const std::string path = manager.SpillPathFor("h");
  Result<std::string> text = serialize::ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << path;
  const std::string untampered = base.empty() ? text.Value() : base;
  ASSERT_TRUE(serialize::WriteTextFile(path, untampered).ok());
  responses = RunScript(manager,
                        "{\"id\":4,\"verb\":\"mine\",\"session\":\"h\"}\n"
                        "{\"id\":5,\"verb\":\"evict\",\"session\":\"h\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok)
      << "the untampered spill did not restore: "
      << responses[0].error.ToString();
  ASSERT_TRUE(responses[1].ok) << responses[1].error.ToString();

  ASSERT_TRUE(serialize::WriteTextFile(path, tamper(untampered)).ok());
  responses = RunScript(manager,
                        "{\"id\":6,\"verb\":\"mine\",\"session\":\"h\"}\n"
                        "{\"id\":7,\"verb\":\"stats\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_TRUE(responses[1].ok) << "server stopped answering";
  std::system(("rm -rf " + spill_dir).c_str());
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
  // restore and silently mine dense spread directions. The retired
  // `use_optimal_search` flag is ignored, but only as a bool.
  for (const auto& [field, tampered] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"beam_width\":8", "\"beam_width\":4294967297"},
           {"\"spread_sparsity\":0", "\"spread_sparsity\":7"},
           {"\"prior_ridge\":",
            "\"use_optimal_search\":\"yes\",\"prior_ridge\":"}}) {
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
  ExpectTamperedSpillAnswersOkFalse(
      "/tmp/sisd_hostile_input_spill", "", [](const std::string& text) {
        std::string snapshot = text;
        const size_t at = snapshot.find("\"beam_width\":8");
        EXPECT_NE(at, std::string::npos);
        if (at != std::string::npos) {
          snapshot.replace(at, 14, "\"beam_width\":0");
        }
        return snapshot;
      });
}

TEST(HostileInputTest, SnapshotWithNonSpdCovarianceFailsToRestore) {
  const std::string snapshot = V1Snapshot();
  ASSERT_TRUE(core::MiningSession::RestoreFromString(snapshot).ok());
  for (const bool stale_factor : {false, true}) {
    SCOPED_TRACE(stale_factor ? "with stale factor" : "without factor");
    Result<core::MiningSession> restored =
        core::MiningSession::RestoreFromString(
            WithNonSpdSigma(snapshot, stale_factor));
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(HostileInputTest, SpillSnapshotWithNonSpdCovarianceAnswersOkFalse) {
  ExpectTamperedSpillAnswersOkFalse(
      "/tmp/sisd_hostile_input_spd_spill", V1Snapshot(),
      [](const std::string& text) { return WithNonSpdSigma(text, false); });
}

TEST(HostileInputTest, SnapshotWithUnfactoredTamperingFailsToRestore) {
  const std::string snapshot = V1Snapshot();
  for (const Tampering& tampering : UnfactoredTamperings()) {
    SCOPED_TRACE(tampering.name);
    Result<core::MiningSession> restored =
        core::MiningSession::RestoreFromString(
            WithFirstGroupEdited(snapshot, tampering.edit));
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

#ifdef SISD_CLI_BIN
/// Runs the built `sisd_cli` with `args`; returns its exit code and puts
/// its stderr in `*error`.
int RunCli(const std::string& args, const std::string& dir,
           std::string* error) {
  const std::string stderr_path = dir + "/stderr.txt";
  const int rc = std::system((std::string(SISD_CLI_BIN) + " " + args +
                              " > /dev/null 2> " + stderr_path)
                                 .c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << args;
  Result<std::string> message = serialize::ReadTextFile(stderr_path);
  *error = message.ok() ? message.Value() : std::string();
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(HostileInputTest, CliResumeOfUnfactoredTamperingExitsOne) {
  const std::string dir = "/tmp/sisd_hostile_input_cli";
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  const std::string snapshot = V1Snapshot();
  for (const Tampering& tampering : UnfactoredTamperings()) {
    SCOPED_TRACE(tampering.name);
    const std::string tampered = dir + "/tampered.json";
    const std::string resumed = dir + "/resumed.json";
    ASSERT_TRUE(serialize::WriteTextFile(
                    tampered, WithFirstGroupEdited(snapshot, tampering.edit))
                    .ok());
    std::string error;
    EXPECT_EQ(RunCli("resume --session " + tampered +
                         " --iterations 1 --session-save " + resumed,
                     dir, &error),
              1);
    EXPECT_NE(error.find("InvalidArgument"), std::string::npos) << error;
    EXPECT_FALSE(serialize::ReadTextFile(resumed).ok())
        << "the tampered state was written back";
  }
  std::system(("rm -rf " + dir).c_str());
}
#endif

TEST(HostileInputTest, SpillWithUnfactoredTamperingAnswersOkFalse) {
  for (const Tampering& tampering : UnfactoredTamperings()) {
    SCOPED_TRACE(tampering.name);
    ExpectTamperedSpillAnswersOkFalse(
        "/tmp/sisd_hostile_input_tamper_spill", V1Snapshot(),
        [&tampering](const std::string& text) {
          return WithFirstGroupEdited(text, tampering.edit);
        });
  }
}

/// A version-2 snapshot of a synthetic session (location and spread
/// patterns) after two iterations.
std::string V2Snapshot() {
  core::MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 5;
  Result<core::MiningSession> session = core::MiningSession::Create(
      datagen::MakeScenarioDataset("synthetic").Value(), config);
  EXPECT_TRUE(session.ok());
  EXPECT_TRUE(session.Value().MineIterations(2).ok());
  return session.Value().SaveToString();
}

/// Snapshot `text` with the first condition of iteration 1's location
/// intention, and of every ranked intention, replaced by `condition`.
std::string WithFirstConditions(const std::string& text,
                                const std::string& condition) {
  std::string out = WithValueAt(
      text, {"history", "0", "location", "subgroup", "intention", "0"},
      Json(condition));
  const serialize::JsonValue root = Json(text);
  const size_t ranked = root.Find("history")->items()[0].Find("ranked")->size();
  for (size_t k = 0; k < ranked; ++k) {
    out = WithValueAt(out,
                      {"history", "0", "ranked", std::to_string(k),
                       "subgroup", "intention", "0"},
                      Json(condition));
  }
  return out;
}

/// History edits the replay must refuse before it runs.
std::vector<std::pair<std::string, std::string>> HostileHistoryEdits(
    const std::string& snapshot) {
  const testing::JsonPath spread = {"history", "0", "spread"};
  auto at = [&spread](const std::string& key) {
    testing::JsonPath path = spread;
    path.push_back(key);
    return path;
  };
  return {
      {"zero direction", WithValueAt(snapshot, at("direction"),
                                     Json("[0.0,0.0]"))},
      {"NaN direction", WithValueAt(snapshot, at("direction"),
                                    Json("[\"NaN\",1.0]"))},
      {"1-dim direction", WithValueAt(snapshot, at("direction"),
                                      Json("[1.0]"))},
      {"NaN variance", WithValueAt(snapshot, at("variance"), Json("\"NaN\""))},
      {"no rows",
       WithValueAt(snapshot,
                   {"history", "0", "location", "subgroup", "intention"},
                   Json("[{\"attribute\":0,\"op\":\"eq\",\"threshold\":0.0,"
                        "\"level\":0},{\"attribute\":0,\"op\":\"eq\","
                        "\"threshold\":0.0,\"level\":1}]"))},
      {"attribute 99999",
       WithFirstConditions(snapshot,
                           "{\"attribute\":99999,\"op\":\"eq\","
                           "\"threshold\":0.0,\"level\":1}")},
      {"le on a binary column",
       WithFirstConditions(snapshot,
                           "{\"attribute\":0,\"op\":\"le\","
                           "\"threshold\":0.5,\"level\":0}")},
      {"level 2 of 2",
       WithFirstConditions(snapshot,
                           "{\"attribute\":0,\"op\":\"eq\","
                           "\"threshold\":0.0,\"level\":2}")},
  };
}

TEST(HostileInputTest, HostileHistoryFieldsFailToRestore) {
  const std::string snapshot = V2Snapshot();
  ASSERT_TRUE(core::MiningSession::RestoreFromString(snapshot).ok());
  for (const auto& [name, text] : HostileHistoryEdits(snapshot)) {
    SCOPED_TRACE(name);
    ASSERT_NE(text, snapshot);
    Result<core::MiningSession> restored =
        core::MiningSession::RestoreFromString(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().ToString();
  }
}

TEST(HostileInputTest, SpillWithHostileHistoryAnswersOkFalse) {
  const std::string snapshot = V2Snapshot();
  for (const auto& [name, text] : HostileHistoryEdits(snapshot)) {
    SCOPED_TRACE(name);
    ExpectTamperedSpillAnswersOkFalse(
        "/tmp/sisd_hostile_input_history_spill", snapshot,
        [&text](const std::string&) { return text; });
  }
}

TEST(HostileInputTest, InfiniteThresholdsRestoreAndNaNOnesDoNot) {
  // `assimilate` takes a threshold of +-Infinity (a condition every row
  // meets), so a snapshot recording one must restore. A NaN threshold
  // matches no row: the live call refuses it, and so does a restore.
  std::string csv = "x,z,t\n";
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i % 7) + "," + std::to_string((3 * i) % 11) + "," +
           std::to_string(0.25 * (i % 5) + (i % 7 < 3 ? 2.0 : 0.0)) + "\n";
  }
  Result<data::DataTable> table = data::ReadCsvText(csv);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Result<data::Dataset> dataset =
      data::MakeDataset(table.Value(), {"t"}, "thresholds");
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  core::MinerConfig config;
  config.search.beam_width = 4;
  config.search.max_depth = 1;
  config.search.min_coverage = 3;
  Result<core::MiningSession> session =
      core::MiningSession::Create(std::move(dataset).MoveValue(), config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const double inf = std::numeric_limits<double>::infinity();
  Result<core::IterationResult> assimilated =
      session.Value().AssimilateIntention(
          pattern::Intention({pattern::Condition::LessEqual(0, inf),
                              pattern::Condition::GreaterEqual(1, -inf)}));
  ASSERT_TRUE(assimilated.ok()) << assimilated.status().ToString();
  EXPECT_FALSE(session.Value()
                   .AssimilateIntention(pattern::Intention(
                       {pattern::Condition::LessEqual(0, std::nan(""))}))
                   .ok());
  ASSERT_TRUE(session.Value().MineNext().ok());

  const std::string saved = session.Value().SaveToString();
  Result<core::MiningSession> restored =
      core::MiningSession::RestoreFromString(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value().SaveToString(), saved);

  const std::string nan_threshold =
      WithValueAt(saved,
                  {"history", "0", "location", "subgroup", "intention", "0",
                   "threshold"},
                  Json("\"NaN\""));
  ASSERT_NE(nan_threshold, saved);
  restored = core::MiningSession::RestoreFromString(nan_threshold);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
      << restored.status().ToString();
}

TEST(HostileInputTest, InfiniteThresholdSurvivesEviction) {
  // The spill of a catalog session is a `dataset_ref` snapshot; after an
  // `assimilate` with an infinite threshold it must restore on the next
  // request.
  const std::string spill_dir = "/tmp/sisd_hostile_input_inf_spill";
  ASSERT_EQ(std::system(("rm -rf " + spill_dir + " && mkdir -p " +
                         spill_dir).c_str()),
            0);
  std::string csv = "x,z,t\n";
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i % 7) + "," + std::to_string((3 * i) % 11) + "," +
           std::to_string(0.25 * (i % 5) + (i % 7 < 3 ? 2.0 : 0.0)) + "\n";
  }
  serialize::JsonValue load = serialize::JsonValue::Object();
  load.Set("id", serialize::JsonValue::Int(1));
  load.Set("verb", serialize::JsonValue::Str("dataset_load"));
  load.Set("name", serialize::JsonValue::Str("thresholds"));
  load.Set("csv_text", serialize::JsonValue::Str(csv));
  serialize::JsonValue targets = serialize::JsonValue::Array();
  targets.Append(serialize::JsonValue::Str("t"));
  load.Set("targets", targets);

  ServeConfig serve_config;
  serve_config.spill_dir = spill_dir;
  SessionManager manager(serve_config);
  const std::vector<serialize::ProtocolResponse> responses = RunScript(
      manager,
      load.Write() + "\n" +
          "{\"id\":2,\"verb\":\"open\",\"session\":\"h\","
          "\"dataset_ref\":\"thresholds\",\"config\":{\"beam_width\":4,"
          "\"max_depth\":1,\"min_coverage\":3}}\n"
          "{\"id\":3,\"verb\":\"assimilate\",\"session\":\"h\","
          "\"conditions\":[{\"attribute\":\"x\",\"op\":\"<=\","
          "\"threshold\":\"Infinity\"}]}\n"
          "{\"id\":4,\"verb\":\"assimilate\",\"session\":\"h\","
          "\"conditions\":[{\"attribute\":\"x\",\"op\":\"<=\","
          "\"threshold\":\"NaN\"}]}\n"
          "{\"id\":5,\"verb\":\"evict\",\"session\":\"h\"}\n"
          "{\"id\":6,\"verb\":\"mine\",\"session\":\"h\"}\n"
          "{\"id\":7,\"verb\":\"history\",\"session\":\"h\"}\n");
  ASSERT_EQ(responses.size(), 7u);
  for (size_t i : {0, 1, 2, 4, 5, 6}) {
    EXPECT_TRUE(responses[i].ok)
        << "response " << i << ": " << responses[i].error.ToString();
  }
  EXPECT_FALSE(responses[3].ok) << "a NaN threshold was assimilated";
  EXPECT_EQ(responses[3].error.code(), StatusCode::kInvalidArgument);
  const serialize::JsonValue* iterations =
      responses[6].result.Find("iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->GetInt().Value(), 2);
  std::system(("rm -rf " + spill_dir).c_str());
}

#ifdef SISD_CLI_BIN
TEST(HostileInputTest, CliRejectsAnOutOfRangeAttribute) {
  // `export` used to index the description table with the stored
  // attribute and die of a segmentation fault.
  const std::string dir = "/tmp/sisd_hostile_input_attribute";
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()),
            0);
  const std::string saved = dir + "/s.json";
  std::string error;
  ASSERT_EQ(RunCli("mine --scenario synthetic --iterations 2 --beam-width 10 "
                   "--max-depth 2 --top-k 5 --session-save " + saved,
                   dir, &error),
            0)
      << error;
  Result<std::string> text = serialize::ReadTextFile(saved);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(serialize::WriteTextFile(
                  saved, WithFirstConditions(
                             text.Value(),
                             "{\"attribute\":99999,\"op\":\"eq\","
                             "\"threshold\":0.0,\"level\":1}"))
                  .ok());
  for (const std::string& args :
       {"resume --session " + saved + " --iterations 0",
        "export --session " + saved + " --history " + dir + "/h.csv"}) {
    SCOPED_TRACE(args);
    EXPECT_EQ(RunCli(args, dir, &error), 1);
    EXPECT_NE(error.find("InvalidArgument"), std::string::npos) << error;
  }
  std::system(("rm -rf " + dir).c_str());
}
#endif

TEST(HostileInputTest, DegenerateSpreadIsRecordedNotAssimilated) {
  // Group 'a' holds two values 1e-13 apart, so its spread pattern would
  // ask for a variance of about 2.5e-27. Eq. (11) rounds the group's
  // covariance to 0 there: that used to be assimilated and abort the next
  // mine. Such a variance lies below the spread IC's support edge, so the
  // spread step finds no feasible direction and assimilates nothing (the
  // model's own SPD check is covered by background_model_test).
  std::string csv = "g,y\n";
  for (int i = 0; i < 10; ++i) {
    csv += i % 2 == 0 ? "a,10\n" : "a,10.000000000000099\n";
  }
  for (int i = 10; i < 40; ++i) {
    csv += "b," + std::to_string((7 * i) % 11) + "\n";
  }
  serialize::JsonValue open = serialize::JsonValue::Object();
  open.Set("id", serialize::JsonValue::Int(1));
  open.Set("verb", serialize::JsonValue::Str("open"));
  open.Set("session", serialize::JsonValue::Str("h"));
  open.Set("csv_text", serialize::JsonValue::Str(csv));
  serialize::JsonValue targets = serialize::JsonValue::Array();
  targets.Append(serialize::JsonValue::Str("y"));
  open.Set("targets", targets);

  SessionManager manager((ServeConfig()));
  const std::vector<serialize::ProtocolResponse> responses = RunScript(
      manager, open.Write() + "\n" +
                   "{\"id\":2,\"verb\":\"mine\",\"session\":\"h\","
                   "\"iterations\":2}\n"
                   "{\"id\":3,\"verb\":\"stats\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  for (const serialize::ProtocolResponse& response : responses) {
    EXPECT_TRUE(response.ok) << response.error.ToString();
  }
  const serialize::JsonValue* iterations =
      responses[1].result.Find("iterations");
  ASSERT_NE(iterations, nullptr);
  ASSERT_EQ(iterations->size(), 2u);
  const serialize::JsonValue& first = iterations->items()[0];
  EXPECT_EQ(first.Find("spread"), nullptr);
  ASSERT_NE(first.Find("spread_error"), nullptr);
  EXPECT_NE(first.Find("spread_error")->GetString().Value().find(
                "support"),
            std::string::npos);
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
