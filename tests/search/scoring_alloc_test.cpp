// Allocation counts of the candidate scoring path. A counting global
// `operator new` (every thread, every form that routes through the two
// replaced functions) shows that the SI batch evaluator scores a prepared
// batch without touching the heap, on a multi-group model at dy = 1 and
// dy > 1, and that a paper-default beam search allocates far less often
// than it evaluates candidates.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "datagen/water.hpp"
#include "pattern/patterns.hpp"
#include "search/beam_search.hpp"
#include "search/si_evaluator.hpp"

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedAllocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sisd::search {
namespace {

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

/// A depth-2 batch: the first `num_parents` pool conditions refined by every
/// later condition, keeping refinements of at least 20 rows.
CandidateBatch MakeDepthTwoBatch(const ConditionPool& pool,
                                 uint32_t num_parents) {
  CandidateBatch batch;
  batch.pool = &pool;
  batch.depth = 2;
  for (uint32_t p = 0; p < num_parents; ++p) {
    batch.parents.push_back(&pool.extension(p));
  }
  for (uint32_t p = 0; p < num_parents; ++p) {
    for (uint32_t c = p + 1; c < pool.size(); ++c) {
      const size_t count = pattern::Extension::IntersectionCount(
          pool.extension(p), pool.extension(c));
      if (count < 20) continue;
      batch.items.push_back({p, c, uint32_t(count)});
      batch.ids.insert(batch.ids.end(), {p, c});
    }
  }
  return batch;
}

/// Scores a depth-2 batch on a two-assimilation model and expects zero heap
/// allocations once `Prepare` has run.
void ExpectAllocationFreeScoring(const data::Dataset& dataset) {
  Result<model::BackgroundModel> created =
      model::BackgroundModel::CreateFromData(dataset.targets);
  ASSERT_TRUE(created.ok());
  model::BackgroundModel& model = created.Value();
  const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
  AssimilateTwoConditions(pool, dataset.targets, &model);

  const CandidateBatch batch = MakeDepthTwoBatch(pool, 12);
  ASSERT_GT(batch.size(), 500u);
  // The batch must exercise the multi-group marginal path, not only the
  // single-group shortcut.
  std::vector<size_t> counts;
  size_t straddling = 0;
  for (const CandidateBatch::Item& item : batch.items) {
    model.GroupCountsMaskedInto(batch.parent_extension(item),
                                batch.condition_extension(item), &counts);
    size_t hit = 0;
    for (size_t c : counts) hit += c > 0 ? 1 : 0;
    straddling += hit > 1 ? 1 : 0;
  }
  ASSERT_GT(straddling, 100u);

  SiLocationEvaluator evaluator(model, dataset.targets,
                                si::DescriptionLengthParams{});
  evaluator.Prepare(1);
  std::vector<double> scores(batch.size());
  const size_t before = g_allocations.load();
  evaluator.ScoreChunk(batch, 0, batch.size(), 0, scores.data());
  EXPECT_EQ(g_allocations.load() - before, 0u);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(ScoringAllocTest, ScoreChunkAllocatesNothingOnMultiGroupCrime) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  ASSERT_EQ(data.dataset.targets.cols(), 1u);
  ExpectAllocationFreeScoring(data.dataset);
}

TEST(ScoringAllocTest, ScoreChunkAllocatesNothingOnMultiGroupWater) {
  const datagen::WaterData data = datagen::MakeWaterLike();
  ASSERT_GT(data.dataset.targets.cols(), 1u);
  ExpectAllocationFreeScoring(data.dataset);
}

TEST(ScoringAllocTest, PaperDefaultBeamSearchAllocatesUnderOnePercent) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> created =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(created.ok());
  model::BackgroundModel& model = created.Value();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  AssimilateTwoConditions(pool, data.dataset.targets, &model);

  SearchConfig config;  // paper defaults: beam 40, depth 4, top 150
  config.num_threads = 2;
  SiLocationEvaluator evaluator(model, data.dataset.targets,
                                si::DescriptionLengthParams{});
  const size_t before = g_allocations.load();
  const SearchResult result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);
  const size_t allocations = g_allocations.load() - before;
  ASSERT_EQ(result.top.size(), config.top_k);
  EXPECT_GT(result.num_evaluated, 100000u);
  EXPECT_LT(allocations * 100, result.num_evaluated)
      << allocations << " allocations for " << result.num_evaluated
      << " evaluated candidates";
}

}  // namespace
}  // namespace sisd::search
