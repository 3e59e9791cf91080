/// MiningSession: owning-dataset semantics and snapshot save/restore
/// mechanics. The iterative mining loop itself is covered by miner_test.

#include "core/session.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "datagen/synthetic.hpp"

namespace sisd::core {
namespace {

MinerConfig FastConfig() {
  MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  config.spread_optimizer.num_random_starts = 2;
  return config;
}

TEST(MiningSessionTest, OwnsItsDataset) {
  // The dataset handed to Create is moved into the session: no external
  // object needs to stay alive.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok()) << iteration.status().ToString();
  EXPECT_EQ(iteration.Value().location.pattern.subgroup.Coverage(), 40u);
  EXPECT_EQ(session.Value().history().size(), 1u);
}

TEST(MiningSessionTest, SharedDatasetCreateValidates) {
  EXPECT_FALSE(MiningSession::Create(
                   std::shared_ptr<const data::Dataset>(), FastConfig())
                   .ok());
  auto dataset = std::make_shared<const data::Dataset>(
      datagen::MakeSyntheticEmbedded().dataset);
  Result<MiningSession> session =
      MiningSession::Create(dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.Value().shared_dataset().get(), dataset.get());
}

TEST(MiningSessionTest, SnapshotTextRoundTripIsByteIdentical) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.Value().MineNext().ok());

  const std::string saved = session.Value().SaveToString();
  Result<MiningSession> restored = MiningSession::RestoreFromString(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Re-saving the restored session reproduces the exact snapshot bytes.
  EXPECT_EQ(restored.Value().SaveToString(), saved);
  // Restored session state mirrors the original.
  EXPECT_EQ(restored.Value().history().size(), 1u);
  EXPECT_EQ(restored.Value().model().num_groups(),
            session.Value().model().num_groups());
  EXPECT_EQ(restored.Value().assimilator().num_constraints(),
            session.Value().assimilator().num_constraints());
  EXPECT_EQ(restored.Value().condition_pool().size(),
            session.Value().condition_pool().size());
}

TEST(MiningSessionTest, SaveRestoreFileRoundTrip) {
  const std::string path = "/tmp/sisd_session_test_snapshot.json";
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.Value().MineNext().ok());
  ASSERT_TRUE(session.Value().Save(path).ok());

  Result<MiningSession> restored = MiningSession::Restore(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value().SaveToString(), session.Value().SaveToString());
  std::remove(path.c_str());
  EXPECT_FALSE(MiningSession::Restore(path).ok());
}

TEST(MiningSessionTest, RestoreRejectsForeignAndFutureSnapshots) {
  EXPECT_FALSE(MiningSession::RestoreFromString("not json").ok());
  EXPECT_FALSE(MiningSession::RestoreFromString("{}").ok());
  EXPECT_FALSE(MiningSession::RestoreFromString(
                   "{\"format\":\"something-else\",\"schema_version\":1}")
                   .ok());
  // A future schema version is rejected loudly, not half-parsed.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  std::string text = session.Value().SaveToString();
  const std::string tag = "\"schema_version\":2";
  const size_t pos = text.find(tag);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, tag.size(), "\"schema_version\":999");
  Result<MiningSession> future = MiningSession::RestoreFromString(text);
  EXPECT_FALSE(future.ok());
  EXPECT_NE(future.status().message().find("schema version"),
            std::string::npos);
}

TEST(MiningSessionTest, ConfigRoundTripsThroughSnapshots) {
  MinerConfig config = FastConfig();
  config.mix = PatternMix::kLocationOnly;
  config.spread_sparsity = 2;
  config.dl.gamma = 0.25;
  config.search.time_budget_seconds =
      std::numeric_limits<double>::infinity();  // nonfinite must survive
  config.prior_mean = linalg::Vector{0.1, -0.2};
  config.prior_covariance = linalg::Matrix{{2.0, 0.3}, {0.3, 1.5}};

  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<MiningSession> restored =
      MiningSession::RestoreFromString(session.Value().SaveToString());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const MinerConfig& back = restored.Value().config();
  EXPECT_EQ(back.mix, PatternMix::kLocationOnly);
  EXPECT_EQ(back.spread_sparsity, 2);
  EXPECT_EQ(back.dl.gamma, 0.25);
  EXPECT_TRUE(std::isinf(back.search.time_budget_seconds));
  ASSERT_TRUE(back.prior_mean.has_value());
  EXPECT_EQ(*back.prior_mean, *config.prior_mean);
  ASSERT_TRUE(back.prior_covariance.has_value());
  EXPECT_EQ(*back.prior_covariance, *config.prior_covariance);
}

TEST(MiningSessionTest, HalfSetPriorSnapshotIsRejected) {
  // A prior needs both its mean and its covariance; a snapshot that keeps
  // only the mean must fail to restore, not mine on the empirical prior.
  MinerConfig config = FastConfig();
  config.prior_mean = linalg::Vector{0.1, -0.2};
  config.prior_covariance = linalg::Matrix{{2.0, 0.3}, {0.3, 1.5}};
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::string text = session.Value().SaveToString();
  const std::string key = "\"prior_covariance\":";
  const size_t begin = text.find(key);
  ASSERT_NE(begin, std::string::npos);
  const size_t end = text.find('}', begin);
  ASSERT_NE(end, std::string::npos);
  text.replace(begin + key.size(), end + 1 - begin - key.size(), "null");
  Result<MiningSession> restored = MiningSession::RestoreFromString(text);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(MiningSessionTest, InfeasibleSpreadDirectionRecordsSpreadError) {
  // dy = 1: the subgroup g = 'a' has one direction, w = (1), and its
  // targets are constant, so the observed variance lies below the IC's
  // support edge. The iteration keeps its location pattern and records the
  // reason; the snapshot replays it.
  data::Dataset dataset;
  dataset.name = "flat";
  dataset.target_names = {"y"};
  dataset.targets = linalg::Matrix(30, 1);
  std::vector<int32_t> codes(30);
  for (size_t i = 0; i < 30; ++i) {
    codes[i] = i < 10 ? 0 : 1;
    dataset.targets(i, 0) = i < 10 ? 4.0 : double((5 * i) % 7);
  }
  ASSERT_TRUE(dataset.descriptions
                  .AddColumn(data::Column::Categorical("g", codes,
                                                       {"a", "b"}))
                  .ok());
  Result<MiningSession> session =
      MiningSession::Create(std::move(dataset), FastConfig());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<IterationResult> iteration = session.Value().AssimilateIntention(
      pattern::Intention({pattern::Condition::Equals(0, 0)}));
  ASSERT_TRUE(iteration.ok()) << iteration.status().ToString();
  EXPECT_FALSE(iteration.Value().spread.has_value());
  EXPECT_NE(iteration.Value().spread_error.find("support"),
            std::string::npos)
      << iteration.Value().spread_error;
  EXPECT_EQ(session.Value().assimilator().num_constraints(), 1u);

  const std::string saved = session.Value().SaveToString();
  Result<MiningSession> restored = MiningSession::RestoreFromString(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value().history()[0].spread_error,
            iteration.Value().spread_error);
  EXPECT_EQ(restored.Value().SaveToString(), saved);
}

}  // namespace
}  // namespace sisd::core
