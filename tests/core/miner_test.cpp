/// The iterative mining loop (mine, score, assimilate) driven through
/// MiningSession: top-pattern recovery, non-redundant iterations, model
/// evolution, config switches and the per-iteration accounting.

#include "core/session.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.hpp"
#include "search/si_evaluator.hpp"

namespace sisd::core {
namespace {

MinerConfig FastConfig() {
  MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 50;
  config.search.min_coverage = 5;
  config.spread_optimizer.num_random_starts = 2;
  return config;
}

TEST(MinerTest, CreateValidatesDataset) {
  data::Dataset empty;
  empty.targets = linalg::Matrix(1, 1);
  empty.target_names = {"t"};
  EXPECT_FALSE(MiningSession::Create(empty, FastConfig()).ok());
}

TEST(MinerTest, MinesSyntheticTopPattern) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok()) << iteration.status().ToString();
  // Top pattern covers one of the planted 40-point clusters via a single
  // condition on its label attribute.
  const IterationResult& result = iteration.Value();
  EXPECT_EQ(result.location.pattern.subgroup.Coverage(), 40u);
  EXPECT_EQ(result.location.pattern.subgroup.intention.size(), 1u);
  EXPECT_GT(result.location.score.si, 10.0);
  ASSERT_TRUE(result.spread.has_value());
  EXPECT_NEAR(result.spread->pattern.direction.Norm(), 1.0, 1e-9);
  EXPECT_FALSE(result.ranked.empty());
  EXPECT_GT(result.candidates_evaluated, 0u);
}

TEST(MinerTest, IterationsProduceDistinctPatterns) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  Result<std::vector<IterationResult>> iterations =
      session.Value().MineIterations(3);
  ASSERT_TRUE(iterations.ok()) << iterations.status().ToString();
  ASSERT_EQ(iterations.Value().size(), 3u);
  std::set<std::string> signatures;
  for (const IterationResult& it : iterations.Value()) {
    EXPECT_TRUE(signatures
                    .insert(it.location.pattern.subgroup.intention
                                .CanonicalSignature())
                    .second)
        << "iterative mining returned a redundant pattern";
  }
  EXPECT_EQ(session.Value().history().size(), 3u);
}

TEST(MinerTest, ScoreIntentionTracksModelEvolution) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());

  Result<IterationResult> first = session.Value().MineNext();
  ASSERT_TRUE(first.ok());
  const pattern::Intention top_intention =
      first.Value().location.pattern.subgroup.intention;
  // Scored now (post-assimilation): SI collapsed vs the mined score.
  Result<ScoredLocationPattern> rescored =
      session.Value().ScoreIntention(top_intention);
  ASSERT_TRUE(rescored.ok());
  EXPECT_LT(rescored.Value().score.si,
            0.2 * first.Value().location.score.si);
}

TEST(MinerTest, ScoreIntentionRejectsEmptyExtension) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  // The label attribute cannot equal both 0 and 1: the intention matches
  // no rows.
  pattern::Intention impossible({pattern::Condition::Equals(0, 0),
                                 pattern::Condition::Equals(0, 1)});
  EXPECT_FALSE(session.Value().ScoreIntention(impossible).ok());
}

TEST(MinerTest, LocationOnlyModeSkipsSpread) {
  MinerConfig config = FastConfig();
  config.mix = PatternMix::kLocationOnly;
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());
  EXPECT_FALSE(iteration.Value().spread.has_value());
}

TEST(MinerTest, ExplicitPriorIsRespected) {
  MinerConfig config = FastConfig();
  config.prior_mean = linalg::Vector{10.0, 10.0};  // absurd prior
  config.prior_covariance = linalg::Matrix::Identity(2);
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.Value().model().MeanOf(0), (linalg::Vector{10.0, 10.0}));
}

TEST(MinerTest, AsymmetricOrNonFinitePriorIsRejected) {
  // The Cholesky factorization reads only the lower triangle, so these
  // priors would factorize; the model must reject them itself.
  MinerConfig config = FastConfig();
  config.prior_mean = linalg::Vector{0.0, 0.0};
  config.prior_covariance = linalg::Matrix{{2.0, 0.5}, {0.3, 1.5}};
  Result<MiningSession> asymmetric = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_FALSE(asymmetric.ok());
  EXPECT_EQ(asymmetric.status().code(), StatusCode::kInvalidArgument);

  config.prior_covariance = linalg::Matrix{
      {2.0, std::numeric_limits<double>::quiet_NaN()}, {0.3, 1.5}};
  EXPECT_EQ(MiningSession::Create(datagen::MakeSyntheticEmbedded().dataset,
                                  config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  config.prior_covariance = linalg::Matrix{{2.0, 0.3}, {0.3, 1.5}};
  config.prior_mean =
      linalg::Vector{std::numeric_limits<double>::infinity(), 0.0};
  EXPECT_EQ(MiningSession::Create(datagen::MakeSyntheticEmbedded().dataset,
                                  config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Half a prior is rejected too, rather than silently replaced by the
  // empirical one.
  MinerConfig mean_only = FastConfig();
  mean_only.prior_mean = linalg::Vector{0.0, 0.0};
  EXPECT_EQ(MiningSession::Create(datagen::MakeSyntheticEmbedded().dataset,
                                  mean_only)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  MinerConfig covariance_only = FastConfig();
  covariance_only.prior_covariance = linalg::Matrix{{2.0, 0.3}, {0.3, 1.5}};
  EXPECT_EQ(MiningSession::Create(datagen::MakeSyntheticEmbedded().dataset,
                                  covariance_only)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MinerTest, PairSparseSpreadDirection) {
  MinerConfig config = FastConfig();
  config.spread_sparsity = 2;
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());
  ASSERT_TRUE(iteration.Value().spread.has_value());
  // With dy = 2 the pair sweep is the full problem; direction still unit.
  EXPECT_NEAR(iteration.Value().spread->pattern.direction.Norm(), 1.0, 1e-9);
}

TEST(MinerTest, RankedListIsSortedBySiAndDeduplicated) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());
  const auto& ranked = iteration.Value().ranked;
  ASSERT_GT(ranked.size(), 1u);
  std::set<std::string> signatures;
  for (size_t r = 0; r < ranked.size(); ++r) {
    if (r > 0) {
      EXPECT_GE(ranked[r - 1].score.si, ranked[r].score.si)
          << "ranked list not sorted at " << r;
    }
    EXPECT_TRUE(signatures
                    .insert(ranked[r]
                                .pattern.subgroup.intention
                                .CanonicalSignature())
                    .second);
  }
}

TEST(MinerTest, TimeBudgetIsReportedThrough) {
  MinerConfig config = FastConfig();
  config.search.time_budget_seconds = 0.0;
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  // Either nothing was found in time (NotFound) or the result is flagged.
  if (iteration.ok()) {
    EXPECT_TRUE(iteration.Value().hit_time_budget);
  } else {
    EXPECT_EQ(iteration.status().code(), StatusCode::kNotFound);
  }
}

TEST(MinerTest, MinCoverageHonoredInResults) {
  MinerConfig config = FastConfig();
  config.search.min_coverage = 60;  // larger than the planted clusters
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());
  for (const auto& entry : iteration.Value().ranked) {
    EXPECT_GE(entry.pattern.subgroup.Coverage(), 60u);
  }
}

TEST(MinerTest, ConditionPoolAccessor) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  // 5 binary attributes x 2 levels = 10 candidate conditions.
  EXPECT_EQ(session.Value().condition_pool().size(), 10u);
}

TEST(MinerTest, DescribeRendersHumanReadableText) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());
  const std::string text = iteration.Value().location.Describe(
      session.Value().dataset().descriptions);
  EXPECT_NE(text.find("SI="), std::string::npos);
  EXPECT_NE(text.find("n=40"), std::string::npos);
}

TEST(MinerTest, CandidatesEvaluatedCountsSearchOnly) {
  // `candidates_evaluated` must equal the number of candidates the beam
  // search itself scored: rescoring the returned top-k for the ranked list
  // reuses the engine's contexts and must not re-enter (and so not
  // double-count) the batch evaluation path.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());

  // Reference: the identical search run standalone against the same
  // (initial) model snapshot.
  const data::Dataset& dataset = session.Value().dataset();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(dataset.targets);
  ASSERT_TRUE(model.ok());
  search::SiLocationEvaluator evaluator(model.Value(), dataset.targets,
                                        FastConfig().dl);
  const search::SearchResult reference =
      search::BeamSearch(dataset.descriptions,
                         session.Value().condition_pool(),
                         FastConfig().search, evaluator);

  // Equal to the standalone search count: had the session's ranked-list
  // rescoring gone through the batch path again, the iteration counter
  // would exceed this by `ranked.size()`.
  ASSERT_GT(iteration.Value().ranked.size(), 1u);
  EXPECT_EQ(iteration.Value().candidates_evaluated, reference.num_evaluated);
  // The evaluator's own batch counter agrees with the search's accounting.
  EXPECT_EQ(evaluator.num_batch_scored(), reference.num_evaluated);
}

}  // namespace
}  // namespace sisd::core
