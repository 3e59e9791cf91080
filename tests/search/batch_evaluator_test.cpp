// Equivalence tests of the batch evaluation engine: the SI batch evaluator
// at num_threads = 1 must reproduce the materializing reference evaluator
// over free-function SI bit-for-bit (same top-k intentions/extensions, same
// SI values, same candidates_evaluated), and multi-threaded scoring must be
// bit-identical to single-threaded scoring.

#include "search/batch_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "datagen/synthetic.hpp"
#include "datagen/water.hpp"
#include "linalg/cholesky.hpp"
#include "pattern/patterns.hpp"
#include "reference_search.hpp"
#include "search/beam_search.hpp"
#include "search/si_evaluator.hpp"
#include "search/thread_pool.hpp"
#include "si/evaluation_context.hpp"
#include "si/interestingness.hpp"

namespace sisd::search {
namespace {

void ExpectIdenticalResults(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.num_evaluated, b.num_evaluated);
  EXPECT_EQ(a.hit_time_budget, b.hit_time_budget);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].intention.CanonicalSignature(),
              b.top[i].intention.CanonicalSignature())
        << "rank " << i;
    EXPECT_EQ(a.top[i].extension, b.top[i].extension) << "rank " << i;
    // Bit-identical scores, not just approximately equal.
    EXPECT_EQ(a.top[i].quality, b.top[i].quality) << "rank " << i;
  }
}

TEST(BatchEvaluatorTest, MatchesReferenceEvaluatorOnSynthetic) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.min_coverage = 5;
  config.num_threads = 1;

  const SearchResult reference_result = reference::ReferenceBeamSearch(
      data.dataset.descriptions, pool, config,
      reference::SiQuality(model.Value(), data.dataset.targets, dl));

  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult engine_result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(engine_result.top.empty());
  ExpectIdenticalResults(reference_result, engine_result);
}

TEST(BatchEvaluatorTest, MatchesReferenceEvaluatorOnCrime) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.max_depth = 2;
  config.beam_width = 10;
  config.min_coverage = 20;
  config.num_threads = 1;

  const SearchResult reference_result = reference::ReferenceBeamSearch(
      data.dataset.descriptions, pool, config,
      reference::SiQuality(model.Value(), data.dataset.targets, dl));

  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult engine_result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(engine_result.top.empty());
  ExpectIdenticalResults(reference_result, engine_result);
}

TEST(BatchEvaluatorTest, MatchesReferenceEvaluatorOnMultiGroupModel) {
  // After a location update the model splits into several parameter groups,
  // exercising the masked per-group counts and the scratch marginal
  // factorization (the multi-group IC path).
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const pattern::Extension& cluster = data.truth.cluster_extensions[0];
  const linalg::Vector cluster_mean =
      pattern::SubgroupMean(data.dataset.targets, cluster);
  ASSERT_TRUE(
      model.Value().UpdateLocation(cluster, cluster_mean).ok());
  ASSERT_GT(model.Value().num_groups(), 1u);

  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.min_coverage = 5;
  config.num_threads = 1;

  const SearchResult reference_result = reference::ReferenceBeamSearch(
      data.dataset.descriptions, pool, config,
      reference::SiQuality(model.Value(), data.dataset.targets, dl));

  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult engine_result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(engine_result.top.empty());
  ExpectIdenticalResults(reference_result, engine_result);
}

TEST(BatchEvaluatorTest, ThreadCountDoesNotChangeResults) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  SearchConfig config;
  config.min_coverage = 5;
  config.num_threads = 1;
  SiLocationEvaluator single(model.Value(), data.dataset.targets, dl);
  const SearchResult single_result =
      BeamSearch(data.dataset.descriptions, pool, config, single);

  for (int threads : {2, 8}) {
    SearchConfig parallel_config = config;
    parallel_config.num_threads = threads;
    SiLocationEvaluator parallel(model.Value(), data.dataset.targets, dl);
    const SearchResult parallel_result = BeamSearch(
        data.dataset.descriptions, pool, parallel_config, parallel);
    ExpectIdenticalResults(single_result, parallel_result);
  }
}

TEST(BatchEvaluatorTest, EvaluationContextMatchesFreeFunctions) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const si::DescriptionLengthParams dl;
  si::EvaluationContext context(model.Value(), &data.dataset.targets);

  const pattern::Extension& cluster = data.truth.cluster_extensions[1];
  const linalg::Vector mean =
      pattern::SubgroupMean(data.dataset.targets, cluster);

  EXPECT_EQ(context.LocationIC(cluster, mean),
            si::LocationIC(model.Value(), cluster, mean));

  const si::LocationScore via_context =
      context.ScoreLocation(cluster, mean, 1, dl);
  const si::LocationScore via_free =
      si::ScoreLocation(model.Value(), cluster, mean, 1, dl);
  EXPECT_EQ(via_context.ic, via_free.ic);
  EXPECT_EQ(via_context.dl, via_free.dl);
  EXPECT_EQ(via_context.si, via_free.si);

  // Masked path over a & b == materialized path over the intersection.
  const pattern::Extension full(cluster.universe_size(), /*full=*/true);
  linalg::Vector masked_mean;
  context.MaskedSubgroupMeanInto(full, cluster, cluster.count(),
                                 &masked_mean);
  EXPECT_EQ(masked_mean, mean);
  EXPECT_EQ(
      context.LocationICMasked(full, cluster, cluster.count(), masked_mean),
      via_free.ic);
}

/// The allocating multi-group IC (Eq. 13): the marginal law straight from
/// the model, factored afresh. `EvaluationContext` must match it bit for bit
/// while building the same marginal into reused scratch.
double ReferenceMultiGroupIC(const model::BackgroundModel& model,
                             const pattern::Extension& extension,
                             const linalg::Vector& empirical_mean) {
  constexpr double kLog2Pi = 1.8378770664093453;
  const model::MeanStatisticMarginal marginal =
      model.MeanStatMarginal(extension);
  Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(marginal.cov);
  chol.status().CheckOK();
  const linalg::Vector diff = empirical_mean - marginal.mean;
  return 0.5 * (double(model.dim()) * kLog2Pi +
                chol.Value().LogDeterminant()) +
         0.5 * chol.Value().InverseQuadraticForm(diff);
}

/// Cluster rows plus an equal run of leading non-cluster rows (guaranteed
/// to straddle the group split introduced by a location update).
pattern::Extension MakeStraddlingExtension(const pattern::Extension& cluster,
                                           size_t n) {
  pattern::Extension out = cluster;
  size_t added = 0;
  for (size_t i = 0; i < n && added < cluster.count(); ++i) {
    if (!out.Contains(i)) {
      out.Insert(i);
      ++added;
    }
  }
  return out;
}

TEST(BatchEvaluatorTest, MaskedKernelsMatchMaterializedOnMultiGroupModel) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const pattern::Extension& cluster = data.truth.cluster_extensions[0];
  ASSERT_TRUE(model.Value()
                  .UpdateLocation(
                      cluster,
                      pattern::SubgroupMean(data.dataset.targets, cluster))
                  .ok());
  ASSERT_GT(model.Value().num_groups(), 1u);

  si::EvaluationContext context(model.Value(), &data.dataset.targets);
  // A straddling subgroup: half inside the updated cluster, half outside.
  const pattern::Extension straddle =
      MakeStraddlingExtension(cluster, data.dataset.targets.rows());
  const pattern::Extension full(straddle.universe_size(), /*full=*/true);
  const linalg::Vector mean =
      pattern::SubgroupMean(data.dataset.targets, straddle);

  const double masked =
      context.LocationICMasked(full, straddle, straddle.count(), mean);
  EXPECT_EQ(masked, si::LocationIC(model.Value(), straddle, mean));
  EXPECT_EQ(masked, ReferenceMultiGroupIC(model.Value(), straddle, mean));
}

/// Assimilates the location patterns of two pool conditions on different
/// attributes, leaving a model with several parameter groups.
void AssimilateTwoConditions(const ConditionPool& pool,
                             const linalg::Matrix& y,
                             model::BackgroundModel* model) {
  const uint32_t first = 0;
  uint32_t second = 1;
  while (pool.condition(second).attribute == pool.condition(first).attribute) {
    ++second;
  }
  for (uint32_t id : {first, second}) {
    const pattern::Extension& ext = pool.extension(id);
    ASSERT_TRUE(model->UpdateLocation(ext, pattern::SubgroupMean(y, ext)).ok());
  }
  ASSERT_GT(model->num_groups(), 2u);
}

/// The engine's scratch-marginal IC equals the allocating reference bit for
/// bit on depth-2 subgroups that straddle several parameter groups.
void ExpectScratchMarginalsMatchReference(const data::Dataset& dataset) {
  Result<model::BackgroundModel> created =
      model::BackgroundModel::CreateFromData(dataset.targets);
  ASSERT_TRUE(created.ok());
  model::BackgroundModel& model = created.Value();
  const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
  AssimilateTwoConditions(pool, dataset.targets, &model);

  si::EvaluationContext context(model, &dataset.targets);
  std::vector<size_t> counts;
  size_t checked = 0;
  for (uint32_t a = 0; a < pool.size() && checked < 150; ++a) {
    for (uint32_t b = a + 1; b < pool.size() && checked < 150; b += 7) {
      const pattern::Extension& ea = pool.extension(a);
      const pattern::Extension& eb = pool.extension(b);
      const size_t count = pattern::Extension::IntersectionCount(ea, eb);
      if (count < 2) continue;
      model.GroupCountsMaskedInto(ea, eb, &counts);
      if (std::count_if(counts.begin(), counts.end(),
                        [](size_t c) { return c > 0; }) < 2) {
        continue;
      }
      const pattern::Extension ext = pattern::Extension::Intersect(ea, eb);
      const linalg::Vector mean =
          pattern::SubgroupMean(dataset.targets, ext);
      linalg::Vector masked_mean;
      context.MaskedSubgroupMeanInto(ea, eb, count, &masked_mean);
      ASSERT_EQ(masked_mean, mean);
      const double masked = context.LocationICMasked(ea, eb, count, mean);
      EXPECT_EQ(masked, ReferenceMultiGroupIC(model, ext, mean))
          << "conditions " << a << ", " << b;
      EXPECT_EQ(masked, si::LocationIC(model, ext, mean));
      ++checked;
    }
  }
  EXPECT_GE(checked, 100u);
}

TEST(BatchEvaluatorTest, ScratchMarginalsMatchReferenceOnCrime) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  ASSERT_EQ(data.dataset.targets.cols(), 1u);
  ExpectScratchMarginalsMatchReference(data.dataset);
}

TEST(BatchEvaluatorTest, ScratchMarginalsMatchReferenceOnWater) {
  const datagen::WaterData data = datagen::MakeWaterLike();
  ASSERT_GT(data.dataset.targets.cols(), 1u);
  ExpectScratchMarginalsMatchReference(data.dataset);
}

}  // namespace
}  // namespace sisd::search
