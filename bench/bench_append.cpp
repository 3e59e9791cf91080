// Live-dataset append benchmarks: what does it cost to move an analyst's
// session onto freshly appended rows, versus tearing everything down and
// reopening from scratch?
//
// Workload: the crime-like scenario grown to 10x its paper size (1994 ->
// 19940 rows, 122 descriptions) in ten equal slices. The benchmarks
// measure the *steady-state step* — the dataset sits at 9x and one more
// 1994-row slice arrives:
//
//   BM_CrimeAppendRebase   the live path: DatasetCatalog::Append (typed
//                          slice build + marginal fingerprint over the
//                          new rows + incremental refresh of the cached
//                          condition pool), then MiningSession::Rebase
//                          (prior recomputed on the grown targets, the
//                          assimilated history replayed through the live
//                          assimilation path).
//   BM_CrimeFullReopen     the no-versioning path on identical data:
//                          re-intern the full grown dataset (whole-table
//                          fingerprint), build the condition pool from
//                          scratch, create a fresh session, re-assimilate
//                          the same history.
//
// scripts/bench_append.sh records both and reports the reopen/rebase
// ratio (BENCH_append.json); the two component benches isolate where the
// incremental pool refresh wins over a scratch build.

#include <memory>
#include <optional>
#include <vector>

#include "harness/microbench.hpp"
#include "catalog/dataset_catalog.hpp"
#include "core/session.hpp"
#include "data/append.hpp"
#include "data/table.hpp"
#include "datagen/crime.hpp"
#include "datagen/scenarios.hpp"
#include "pattern/condition.hpp"
#include "search/condition_pool.hpp"

namespace {

using sisd::Result;
using sisd::bench::State;

constexpr int kSplits = 4;
constexpr size_t kSliceRows = 1994;  // the paper's crime row count
constexpr size_t kGrowthSlices = 9;  // parent at 9x, the step reaches 10x

sisd::core::MinerConfig BenchConfig() {
  sisd::core::MinerConfig config;
  config.search.num_split_points = kSplits;
  config.search.num_threads = 1;  // deterministic single-core timing
  return config;
}

/// One crime-like slice; distinct seeds give distinct (but identically
/// distributed and identically typed) rows, so slices append cleanly.
sisd::data::Dataset CrimeSlice(uint64_t seed) {
  sisd::datagen::CrimeConfig config;
  config.num_rows = kSliceRows;
  config.seed = seed;
  return sisd::datagen::MakeCrimeLike(config).dataset;
}

/// The session's dataset before the measured step: root + 8 slices (9x).
const sisd::data::Dataset& ParentAt9x() {
  static const sisd::data::Dataset parent = [] {
    sisd::data::Dataset current = CrimeSlice(7);
    current.name = "crime-live";
    for (size_t i = 0; i < kGrowthSlices - 1; ++i) {
      Result<sisd::data::Dataset> grown =
          sisd::data::AppendDatasetSlice(current, CrimeSlice(8 + i));
      current = std::move(grown).MoveValue();
    }
    return current;
  }();
  return parent;
}

/// The slice the measured step appends.
const sisd::data::Dataset& FinalSlice() {
  static const sisd::data::Dataset slice =
      CrimeSlice(8 + kGrowthSlices - 1);
  return slice;
}

/// The 10x dataset the reopen path ingests (same rows the append path
/// reaches).
const sisd::data::Dataset& GrownTo10x() {
  static const sisd::data::Dataset grown = [] {
    Result<sisd::data::Dataset> result =
        sisd::data::AppendDatasetSlice(ParentAt9x(), FinalSlice());
    return std::move(result).MoveValue();
  }();
  return grown;
}

/// The analyst history both paths carry: two single-condition intentions
/// drawn from the parent's own condition pool (assimilated, not searched,
/// so the benches time the model machinery rather than beam search).
const std::vector<sisd::pattern::Intention>& History() {
  static const std::vector<sisd::pattern::Intention> history = [] {
    const sisd::search::ConditionPool pool = sisd::search::ConditionPool::
        Build(ParentAt9x().descriptions, kSplits, false);
    std::vector<sisd::pattern::Intention> intentions;
    intentions.emplace_back(
        std::vector<sisd::pattern::Condition>{pool.condition(0)});
    intentions.emplace_back(
        std::vector<sisd::pattern::Condition>{pool.condition(1)});
    return intentions;
  }();
  return history;
}

void BM_CrimeAppendRebase(State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    // A fresh server state at 9x: catalog owns the dataset, the condition
    // pool is memoized, the session has assimilated the history.
    sisd::catalog::DatasetCatalog catalog;
    Result<sisd::catalog::PinnedDataset> interned =
        catalog.Intern(ParentAt9x(), /*pin=*/false, /*retain=*/true);
    std::shared_ptr<const sisd::search::ConditionPool> pool =
        catalog.PoolFor(interned.Value(), kSplits, false);
    Result<sisd::core::MiningSession> session =
        sisd::core::MiningSession::Create(interned.Value().dataset,
                                          BenchConfig(), pool,
                                          interned.Value().ref());
    for (const sisd::pattern::Intention& intention : History()) {
      sisd::bench::DoNotOptimize(
          session.Value().AssimilateIntention(intention).ok());
    }
    state.ResumeTiming();

    Result<sisd::catalog::AppendOutcome> appended = catalog.Append(
        "crime-live",
        [](const sisd::data::Dataset& parent) {
          return sisd::data::AppendDatasetSlice(parent, FinalSlice());
        },
        /*pin=*/false, /*retain=*/true);
    std::shared_ptr<const sisd::search::ConditionPool> child_pool =
        catalog.PoolFor(appended.Value().dataset, kSplits, false);
    Result<sisd::core::RebaseOutcome> rebased = session.Value().Rebase(
        appended.Value().dataset.dataset, child_pool,
        appended.Value().dataset.ref());
    sisd::bench::DoNotOptimize(rebased.ok());
    sisd::bench::DoNotOptimize(session.Value().dataset().num_rows());
  }
}
SISD_BENCHMARK(BM_CrimeAppendRebase)->Unit(sisd::bench::kMillisecond);

void BM_CrimeFullReopen(State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sisd::catalog::DatasetCatalog catalog;
    sisd::data::Dataset copy = GrownTo10x();
    state.ResumeTiming();

    Result<sisd::catalog::PinnedDataset> interned =
        catalog.Intern(std::move(copy), /*pin=*/false, /*retain=*/true);
    std::shared_ptr<const sisd::search::ConditionPool> pool =
        catalog.PoolFor(interned.Value(), kSplits, false);
    Result<sisd::core::MiningSession> session =
        sisd::core::MiningSession::Create(interned.Value().dataset,
                                          BenchConfig(), pool,
                                          interned.Value().ref());
    for (const sisd::pattern::Intention& intention : History()) {
      sisd::bench::DoNotOptimize(
          session.Value().AssimilateIntention(intention).ok());
    }
    sisd::bench::DoNotOptimize(session.Value().dataset().num_rows());
  }
}
SISD_BENCHMARK(BM_CrimeFullReopen)->Unit(sisd::bench::kMillisecond);

void BM_CrimePoolRefreshIncremental(State& state) {
  const sisd::search::ConditionPool parent_pool =
      sisd::search::ConditionPool::Build(ParentAt9x().descriptions,
                                         kSplits, false);
  for (auto _ : state) {
    sisd::search::IncrementalPoolStats stats;
    const sisd::search::ConditionPool pool =
        sisd::search::ConditionPool::BuildIncremental(
            GrownTo10x().descriptions, parent_pool,
            ParentAt9x().num_rows(), kSplits, false, &stats);
    sisd::bench::DoNotOptimize(pool.size());
    sisd::bench::DoNotOptimize(stats.reused);
  }
}
SISD_BENCHMARK(BM_CrimePoolRefreshIncremental)
    ->Unit(sisd::bench::kMillisecond);

void BM_CrimePoolBuildScratch(State& state) {
  for (auto _ : state) {
    const sisd::search::ConditionPool pool = sisd::search::ConditionPool::
        Build(GrownTo10x().descriptions, kSplits, false);
    sisd::bench::DoNotOptimize(pool.size());
  }
}
SISD_BENCHMARK(BM_CrimePoolBuildScratch)->Unit(sisd::bench::kMillisecond);

// The refresh's win regime: a dataset whose description alphabet is
// label-based (the synthetic scenario's binary attributes), grown 10x.
// Appends never move an equality condition, so every extension extends
// in place over the appended suffix only — the other end of the
// spectrum from crime's all-numeric all-rebuilt worst case.
const sisd::data::Dataset& SynthParentAt9x() {
  static const sisd::data::Dataset parent = [] {
    const sisd::data::Dataset seed =
        sisd::datagen::MakeScenarioDataset("synthetic").Value();
    sisd::data::Dataset current = seed;
    for (size_t i = 0; i < kGrowthSlices - 1; ++i) {
      Result<sisd::data::Dataset> grown =
          sisd::data::AppendDatasetSlice(current, seed);
      current = std::move(grown).MoveValue();
    }
    return current;
  }();
  return parent;
}

const sisd::data::Dataset& SynthGrownTo10x() {
  static const sisd::data::Dataset grown = [] {
    Result<sisd::data::Dataset> result = sisd::data::AppendDatasetSlice(
        SynthParentAt9x(),
        sisd::datagen::MakeScenarioDataset("synthetic").Value());
    return std::move(result).MoveValue();
  }();
  return grown;
}

void BM_SynthPoolRefreshIncremental(State& state) {
  const sisd::search::ConditionPool parent_pool =
      sisd::search::ConditionPool::Build(SynthParentAt9x().descriptions,
                                         kSplits, false);
  for (auto _ : state) {
    sisd::search::IncrementalPoolStats stats;
    const sisd::search::ConditionPool pool =
        sisd::search::ConditionPool::BuildIncremental(
            SynthGrownTo10x().descriptions, parent_pool,
            SynthParentAt9x().num_rows(), kSplits, false, &stats);
    sisd::bench::DoNotOptimize(pool.size());
    sisd::bench::DoNotOptimize(stats.reused);
  }
}
SISD_BENCHMARK(BM_SynthPoolRefreshIncremental)
    ->Unit(sisd::bench::kMicrosecond);

void BM_SynthPoolBuildScratch(State& state) {
  for (auto _ : state) {
    const sisd::search::ConditionPool pool = sisd::search::ConditionPool::
        Build(SynthGrownTo10x().descriptions, kSplits, false);
    sisd::bench::DoNotOptimize(pool.size());
  }
}
SISD_BENCHMARK(BM_SynthPoolBuildScratch)->Unit(sisd::bench::kMicrosecond);

}  // namespace

SISD_BENCHMARK_MAIN()
