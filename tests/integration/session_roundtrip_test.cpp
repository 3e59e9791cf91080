/// The acceptance property of the persistent-session subsystem, on every
/// datagen scenario: save a session after iteration k, restore it, mine
/// iteration k+1 — the restored session's output must be byte-identical to
/// a session that never stopped (Describe strings, ranked lists, search
/// diagnostics, and the full re-saved snapshot). Snapshots store no model,
/// so the restored model — replayed from the history — must encode to the
/// saved session's bytes. A version-1 snapshot (the committed fixture)
/// must upgrade to exactly the session a fresh mine builds. Also verifies
/// that a warm-started refit agrees with RefitFromScratch, and that every
/// group's factor is a fresh factorization of its covariance.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/mammals.hpp"
#include "datagen/scenarios.hpp"
#include "datagen/synthetic.hpp"
#include "datagen/water.hpp"
#include "linalg/cholesky.hpp"
#include "serialize/snapshot.hpp"

#include "../core/snapshot_edit.hpp"

namespace sisd::core {
namespace {

struct Scenario {
  std::string name;
  data::Dataset dataset;
  MinerConfig config;
  int iterations_before_save = 1;
};

/// Paper scenarios, thinned where the full shapes would make an
/// integration test slow; every code path (multi-target, binary targets,
/// spread sparsity, location-only) is still exercised.
std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;

  {
    Scenario s;
    s.name = "synthetic";
    s.dataset = datagen::MakeSyntheticEmbedded().dataset;
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 5;
    s.config.spread_optimizer.num_random_starts = 2;
    s.iterations_before_save = 2;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "crime";
    s.dataset = datagen::MakeCrimeLike(
                    {.num_rows = 500, .num_descriptions = 25, .seed = 7})
                    .dataset;
    s.config.mix = PatternMix::kLocationOnly;
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 10;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "mammals";
    s.dataset = datagen::MakeMammalsLike({.grid_rows = 10,
                                          .grid_cols = 18,
                                          .num_species = 25,
                                          .num_climate = 12,
                                          .seed = 11})
                    .dataset;
    s.config.mix = PatternMix::kLocationOnly;  // §III-B setup
    s.config.search.beam_width = 8;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 20;
    s.config.search.min_coverage = 5;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "water";
    s.dataset = datagen::MakeWaterLike({.num_rows = 400, .seed = 3}).dataset;
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 10;
    s.config.spread_optimizer.num_random_starts = 2;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "gse";
    s.dataset = datagen::MakeGseLike().dataset;
    s.config.spread_sparsity = 2;  // §III-C pair sweep
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 10;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::string DescribeIteration(const IterationResult& iteration,
                              const data::DataTable& descriptions) {
  std::string out = iteration.location.Describe(descriptions);
  out += "\n";
  if (iteration.spread.has_value()) {
    out += iteration.spread->Describe(descriptions);
    out += "\n";
  }
  for (const ScoredLocationPattern& entry : iteration.ranked) {
    out += entry.Describe(descriptions);
    out += "\n";
  }
  return out;
}

std::string AssimilatorBytes(const MiningSession& session) {
  return serialize::EncodeAssimilator(session.assimilator()).Write();
}

TEST(SessionRoundTripTest, RestoredSessionMinesByteIdentically) {
  for (Scenario& scenario : AllScenarios()) {
    SCOPED_TRACE(scenario.name);
    Result<MiningSession> unbroken =
        MiningSession::Create(scenario.dataset, scenario.config);
    ASSERT_TRUE(unbroken.ok()) << unbroken.status().ToString();

    // Mine k iterations, snapshot.
    Result<std::vector<IterationResult>> first =
        unbroken.Value().MineIterations(scenario.iterations_before_save);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string snapshot = unbroken.Value().SaveToString();

    // Restore into a fresh session.
    Result<MiningSession> restored =
        MiningSession::RestoreFromString(snapshot);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // The snapshot holds no model: the replayed one must be the same.
    EXPECT_EQ(AssimilatorBytes(restored.Value()),
              AssimilatorBytes(unbroken.Value()));

    // The restored history reproduces the saved iterations byte-for-byte.
    const data::DataTable& descriptions =
        restored.Value().dataset().descriptions;
    ASSERT_EQ(restored.Value().history().size(),
              size_t(scenario.iterations_before_save));
    for (int k = 0; k < scenario.iterations_before_save; ++k) {
      EXPECT_EQ(DescribeIteration(restored.Value().history()[size_t(k)],
                                  descriptions),
                DescribeIteration(unbroken.Value().history()[size_t(k)],
                                  descriptions));
    }

    // Iteration k+1 on both sessions: byte-identical output.
    Result<IterationResult> continued = unbroken.Value().MineNext();
    Result<IterationResult> resumed = restored.Value().MineNext();
    ASSERT_TRUE(continued.ok()) << continued.status().ToString();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(DescribeIteration(resumed.Value(), descriptions),
              DescribeIteration(continued.Value(), descriptions));
    EXPECT_EQ(resumed.Value().candidates_evaluated,
              continued.Value().candidates_evaluated);

    // The strongest form: the full re-saved session state is bit-equal.
    EXPECT_EQ(restored.Value().SaveToString(),
              unbroken.Value().SaveToString());

    // Warm-started refit (cyclic descent from the session's current
    // parameters) must converge to the
    // same joint minimum-KL model as a full from-scratch refit.
    model::PatternAssimilator warm = unbroken.Value().assimilator();
    model::PatternAssimilator scratch = warm;
    Result<model::RefitStats> warm_stats = warm.Refit(300, 1e-12);
    ASSERT_TRUE(warm_stats.ok()) << warm_stats.status().ToString();
    Result<model::RefitStats> scratch_stats =
        scratch.RefitFromScratch(300, 1e-12);
    ASSERT_TRUE(scratch_stats.ok()) << scratch_stats.status().ToString();
    EXPECT_LT(warm.model().MaxParameterDelta(scratch.model()), 1e-7)
        << scenario.name;
    EXPECT_LE(warm_stats.Value().sweeps, scratch_stats.Value().sweeps)
        << scenario.name;
    const model::BackgroundModel& live = unbroken.Value().model();
    for (size_t g = 0; g < live.num_groups(); ++g) {
      Result<linalg::Cholesky> fresh =
          linalg::Cholesky::Compute(live.group(g).sigma);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(live.GroupCholesky(g).L(), fresh.Value().L())
          << scenario.name << " group " << g;
    }
  }
}

/// The version-1 fixture (`sisd_cli mine --scenario synthetic --iterations
/// 2 --top-k 5`, written before schema version 2) with a stale `factor`
/// key in every model group when `stale_factor`, as snapshots before the
/// factor was dropped stored one.
std::string V1Snapshot(bool stale_factor) {
  Result<std::string> text = serialize::ReadTextFile(SISD_V1_SNAPSHOT);
  EXPECT_TRUE(text.ok()) << SISD_V1_SNAPSHOT;
  if (!text.ok() || !stale_factor) return text.ok() ? text.Value() : "";
  const serialize::JsonValue root =
      serialize::JsonValue::Parse(text.Value()).Value();
  serialize::JsonValue out = root;
  for (const char* model : {"initial_model", "model"}) {
    const serialize::JsonValue* groups =
        root.Find("assimilator")->Find(model)->Find("groups");
    for (size_t g = 0; g < groups->size(); ++g) {
      out = testing::EditAt(
          out, {"assimilator", model, "groups", std::to_string(g)},
          [](const serialize::JsonValue& group) {
            serialize::JsonValue stale = group;
            stale.Set("factor", serialize::EncodeMatrix(
                                    linalg::Matrix::Identity(2) * 7.0));
            return std::optional<serialize::JsonValue>(stale);
          });
    }
  }
  return out.Write();
}

TEST(SessionRoundTripTest, VersionOneSnapshotUpgradesExactly) {
  const std::string as_written = V1Snapshot(false);
  const std::string stale = V1Snapshot(true);
  ASSERT_EQ(as_written.find("\"factor\""), std::string::npos);
  ASSERT_NE(stale.find("\"factor\""), std::string::npos);
  // Snapshots from before the beam was the only search may ask for the
  // retired branch-and-bound: the flag is ignored and the beam mines.
  const std::string optimal = testing::WithValueAt(
      as_written, {"config", "use_optimal_search"},
      serialize::JsonValue::Bool(true));
  ASSERT_NE(optimal, as_written);
  for (const auto& [name, v1] :
       std::vector<std::pair<std::string, std::string>>{
           {"as written", as_written},
           {"with stale factors", stale},
           {"asking for the optimal search", optimal}}) {
    SCOPED_TRACE(name);
    Result<MiningSession> upgraded = MiningSession::RestoreFromString(v1);
    ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();

    // The same dialogue mined afresh by this build.
    Result<MiningSession> fresh = MiningSession::Create(
        datagen::MakeScenarioDataset("synthetic").Value(),
        upgraded.Value().config());
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh.Value().MineIterations(2).ok());
    EXPECT_EQ(upgraded.Value().SaveToString(), fresh.Value().SaveToString());
    EXPECT_EQ(AssimilatorBytes(upgraded.Value()),
              AssimilatorBytes(fresh.Value()));
    ASSERT_TRUE(upgraded.Value().MineNext().ok());
    ASSERT_TRUE(fresh.Value().MineNext().ok());
    EXPECT_EQ(upgraded.Value().SaveToString(), fresh.Value().SaveToString());
  }
}

TEST(SessionRoundTripTest, VersionOneDerivedFieldsMustMatchTheReplay) {
  const std::string v1 = V1Snapshot(false);
  const serialize::JsonValue root = serialize::JsonValue::Parse(v1).Value();
  const serialize::JsonValue& location =
      *root.Find("history")->items()[0].Find("location");
  // One flipped extension bit: row 60, the low bit of the first hex digit.
  std::string blocks =
      location.Find("subgroup")->Find("extension")->Find("blocks")
          ->GetString()
          .Value();
  const int digit = std::stoi(blocks.substr(0, 1), nullptr, 16) ^ 1;
  blocks[0] = "0123456789abcdef"[digit];
  std::vector<double> mean;
  for (const serialize::JsonValue& entry : location.Find("mean")->items()) {
    mean.push_back(entry.GetDouble().Value());
  }
  mean[0] += 1e-9;
  serialize::JsonValue edited_mean = serialize::JsonValue::Array();
  for (double value : mean) {
    edited_mean.Append(serialize::JsonValue::Double(value));
  }
  for (const auto& [name, text] :
       std::vector<std::pair<std::string, std::string>>{
           {"extension bit",
            testing::WithValueAt(v1,
                                 {"history", "0", "location", "subgroup",
                                  "extension", "blocks"},
                                 serialize::JsonValue::Str(blocks))},
           {"location mean",
            testing::WithValueAt(v1, {"history", "0", "location", "mean"},
                                 edited_mean)},
           {"ranked mean",
            testing::WithValueAt(v1,
                                 {"history", "1", "ranked", "2", "mean"},
                                 edited_mean)},
           {"constraint variance",
            testing::WithValueAt(v1,
                                 {"assimilator", "constraints", "1",
                                  "variance"},
                                 serialize::JsonValue::Double(0.5))}}) {
    SCOPED_TRACE(name);
    ASSERT_NE(text, v1);
    Result<MiningSession> restored = MiningSession::RestoreFromString(text);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionRoundTripTest, FailedSpreadStepReplaysExactly) {
  // Group 'a' holds two values 1e-13 apart, so its variance lies below the
  // spread IC's support edge and the spread step fails: the iteration is
  // recorded location-only with a `spread_error`, and the replay
  // assimilates no spread for it.
  data::Dataset dataset;
  dataset.name = "degenerate";
  dataset.target_names = {"y"};
  dataset.targets = linalg::Matrix(40, 1);
  std::vector<int32_t> codes(40);
  for (size_t i = 0; i < 40; ++i) {
    codes[i] = i < 10 ? 0 : 1;
    dataset.targets(i, 0) = i < 10 ? (i % 2 == 0 ? 10.0 : 10.000000000000099)
                                   : double((7 * i) % 11);
  }
  ASSERT_TRUE(dataset.descriptions
                  .AddColumn(data::Column::Categorical("g", codes,
                                                       {"a", "b"}))
                  .ok());
  MinerConfig config;
  config.search.min_coverage = 2;
  Result<MiningSession> session =
      MiningSession::Create(std::move(dataset), config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session.Value().MineIterations(2).ok());
  ASSERT_FALSE(session.Value().history()[0].spread_error.empty());

  const std::string saved = session.Value().SaveToString();
  Result<MiningSession> restored = MiningSession::RestoreFromString(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(AssimilatorBytes(restored.Value()),
            AssimilatorBytes(session.Value()));
  EXPECT_EQ(restored.Value().SaveToString(), saved);
}

}  // namespace
}  // namespace sisd::core
