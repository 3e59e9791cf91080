// Equivalence tests of the batch evaluation engine: the SI batch evaluator
// at num_threads = 1 must reproduce the materializing reference evaluator
// over free-function SI bit-for-bit (same top-k intentions/extensions, same
// SI values, same candidates_evaluated), and multi-threaded scoring must be
// bit-identical to single-threaded scoring.

#include "search/batch_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

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

TEST(BatchEvaluatorTest, ConditionRowsTransposeThePool) {
  // crime: n = 1994 (not a multiple of 64); synthetic: a pool whose size
  // is not a multiple of 32.
  const datagen::CrimeData crime = datagen::MakeCrimeLike();
  const datagen::SyntheticData synthetic = datagen::MakeSyntheticEmbedded();
  for (const data::DataTable* table :
       {&crime.dataset.descriptions, &synthetic.dataset.descriptions}) {
    const ConditionPool pool = ConditionPool::Build(*table, 4);
    const size_t n = table->num_rows();
    ConditionRows rows;
    rows.Assign(pool, n);
    ASSERT_EQ(rows.num_rows(), n);
    ASSERT_EQ(rows.num_tiles(), (pool.size() + 31) / 32);
    for (size_t t = 0; t < rows.num_tiles(); ++t) {
      for (size_t r = 0; r < n; ++r) {
        uint32_t expected = 0;
        for (size_t c = 0; c < 32 && 32 * t + c < pool.size(); ++c) {
          if (pool.extension(32 * t + c).Contains(r)) expected |= 1u << c;
        }
        ASSERT_EQ(rows.tile(t)[r], expected)
            << "tile " << t << " row " << r;
      }
    }
  }
}

/// Assimilates location patterns of pool conditions on distinct attributes
/// until the model has at least `min_groups` parameter groups.
void AssimilateUntilGroups(const ConditionPool& pool, const linalg::Matrix& y,
                           size_t min_groups, model::BackgroundModel* model) {
  std::vector<size_t> used_attributes;
  for (uint32_t id = 0; id < pool.size() && model->num_groups() < min_groups;
       id += 5) {
    const size_t attribute = pool.condition(id).attribute;
    if (std::find(used_attributes.begin(), used_attributes.end(),
                  attribute) != used_attributes.end()) {
      continue;
    }
    used_attributes.push_back(attribute);
    const pattern::Extension& ext = pool.extension(id);
    ASSERT_TRUE(model->UpdateLocation(ext, pattern::SubgroupMean(y, ext)).ok());
  }
  ASSERT_GE(model->num_groups(), min_groups);
}

/// A batch of one level: every listed parent refined by every pool
/// condition, kept when the refinement holds between 2 and n - 1 rows.
/// The id arena stays empty: the SI evaluator never reads it.
CandidateBatch MakeParentBatch(const ConditionPool& pool,
                               const std::vector<const pattern::Extension*>&
                                   parents,
                               size_t depth, size_t n) {
  CandidateBatch batch;
  batch.pool = &pool;
  batch.depth = depth;
  batch.parents = parents;
  for (uint32_t p = 0; p < parents.size(); ++p) {
    for (uint32_t c = 0; c < pool.size(); ++c) {
      const size_t count =
          pattern::Extension::IntersectionCount(*parents[p], pool.extension(c));
      if (count < 2 || count >= n) continue;
      batch.items.push_back({p, c, uint32_t(count)});
    }
  }
  return batch;
}

/// Parent-major `ScoreChunk` (the batch carries the row-major view) equals
/// the per-candidate masked path — mean from `MaskedSubgroupMeanInto`, IC
/// from `LocationICMasked` — bit for bit, whatever the chunking: chunks of
/// 1, 7 and 37 candidates split parents' runs and straddle parents, and a
/// single chunk covers whole runs.
void ExpectParentMajorMatchesPerCandidate(const model::BackgroundModel& model,
                                          const linalg::Matrix& targets,
                                          const CandidateBatch& batch) {
  const si::DescriptionLengthParams dl;
  si::EvaluationContext reference(model, &targets);
  std::vector<double> expected(batch.size());
  linalg::Vector mean;
  for (size_t i = 0; i < batch.size(); ++i) {
    const CandidateBatch::Item& item = batch.items[i];
    const pattern::Extension& parent = batch.parent_extension(item);
    const pattern::Extension& condition = batch.condition_extension(item);
    reference.MaskedSubgroupMeanInto(parent, condition, item.count, &mean);
    expected[i] = reference.LocationICMasked(parent, condition, item.count,
                                             mean) /
                  si::LocationDescriptionLength(batch.depth, dl);
  }
  SiLocationEvaluator evaluator(model, targets, dl);
  ASSERT_TRUE(evaluator.UsesConditionRows());
  evaluator.Prepare(2);
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{37}, batch.size()}) {
    SCOPED_TRACE("chunk=" + std::to_string(chunk));
    std::vector<double> scores(batch.size(), 0.0);
    for (size_t begin = 0; begin < batch.size(); begin += chunk) {
      evaluator.ScoreChunk(batch, begin,
                           std::min(begin + chunk, batch.size()),
                           (begin / chunk) % 2, scores.data());
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(std::memcmp(&scores[i], &expected[i], sizeof(double)), 0)
          << "candidate " << i << ": " << scores[i] << " vs " << expected[i];
    }
  }
}

TEST(BatchEvaluatorTest, ParentMajorScoringMatchesPerCandidateOnCrime) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  const linalg::Matrix& y = data.dataset.targets;
  ASSERT_EQ(y.cols(), 1u);
  const size_t n = y.rows();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  ConditionRows rows;
  rows.Assign(pool, n);

  Result<model::BackgroundModel> fresh =
      model::BackgroundModel::CreateFromData(y);
  ASSERT_TRUE(fresh.ok());
  Result<model::BackgroundModel> split =
      model::BackgroundModel::CreateFromData(y);
  ASSERT_TRUE(split.ok());
  AssimilateUntilGroups(pool, y, 20, &split.Value());

  // Level 1: the full parent. Level 2: six pool conditions as parents.
  const pattern::Extension full(n, /*full=*/true);
  CandidateBatch level1 = MakeParentBatch(pool, {&full}, 1, n);
  std::vector<const pattern::Extension*> parents;
  for (uint32_t id : {0u, 3u, 17u, 40u, 41u, 90u}) {
    parents.push_back(&pool.extension(id));
  }
  CandidateBatch level2 = MakeParentBatch(pool, parents, 2, n);
  ASSERT_GT(level1.size(), 200u);
  ASSERT_GT(level2.size(), 1000u);
  for (CandidateBatch* batch : {&level1, &level2}) {
    batch->rows = &rows;
    for (const model::BackgroundModel* model : {&fresh.Value(),
                                                &split.Value()}) {
      SCOPED_TRACE("depth=" + std::to_string(batch->depth) +
                   " groups=" + std::to_string(model->num_groups()));
      ExpectParentMajorMatchesPerCandidate(*model, y, *batch);
    }
  }
}

TEST(BatchEvaluatorTest, ParentMajorThreadCountDoesNotChangeResults) {
  // The dy = 1 crime beam scores parent-major on every worker.
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  AssimilateUntilGroups(pool, data.dataset.targets, 4, &model.Value());
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.max_depth = 3;
  config.beam_width = 10;
  config.min_coverage = 10;
  config.num_threads = 1;
  SiLocationEvaluator single(model.Value(), data.dataset.targets, dl);
  const SearchResult single_result =
      BeamSearch(data.dataset.descriptions, pool, config, single);
  ASSERT_FALSE(single_result.top.empty());
  for (int threads : {2, 4}) {
    SearchConfig parallel_config = config;
    parallel_config.num_threads = threads;
    SiLocationEvaluator parallel(model.Value(), data.dataset.targets, dl);
    ExpectIdenticalResults(single_result,
                           BeamSearch(data.dataset.descriptions, pool,
                                      parallel_config, parallel));
  }
}

}  // namespace
}  // namespace sisd::search
