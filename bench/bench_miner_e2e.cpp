// End-to-end benchmarks of the batch evaluation engine (bench/harness):
//
//  - BM_EngineBeamSearchCrimeDepth2: a depth-2 beam search on the crime
//    data at beam widths 5/20/40, candidates scored through
//    SiLocationEvaluator on one thread.
//  - BM_EngineBeamSearchCrimeThreads: thread scaling of the same search.
//  - BM_MinerMineNext: one full mining iteration (search + ranked-list
//    scoring + assimilation) over a synthetic N rows x M descriptions
//    sweep; items/s counts evaluated candidates.
//
// Regenerate the tracked snapshot with scripts/bench_baseline.sh, which
// merges this binary's output into BENCH_*.json.

#include "harness/microbench.hpp"

#include "core/miner.hpp"
#include "datagen/crime.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "search/si_evaluator.hpp"

namespace {

using namespace sisd;

search::SearchConfig CrimeDepth2Config(int beam_width, int num_threads) {
  search::SearchConfig config;
  config.max_depth = 2;
  config.beam_width = beam_width;
  config.min_coverage = 20;
  config.num_threads = num_threads;
  return config;
}

void BM_EngineBeamSearchCrimeDepth2(sisd::bench::State& state) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const search::ConditionPool pool =
      search::ConditionPool::Build(data.dataset.descriptions, 4);
  const search::SearchConfig config =
      CrimeDepth2Config(static_cast<int>(state.range(0)), /*num_threads=*/1);
  const si::DescriptionLengthParams dl;
  size_t evaluated = 0;
  for (auto _ : state) {
    search::SiLocationEvaluator evaluator(model.Value(),
                                          data.dataset.targets, dl);
    const search::SearchResult result = search::BeamSearch(
        data.dataset.descriptions, pool, config, evaluator);
    sisd::bench::DoNotOptimize(result);
    evaluated += result.num_evaluated;
  }
  state.SetItemsProcessed(int64_t(evaluated));
}
SISD_BENCHMARK(BM_EngineBeamSearchCrimeDepth2)
    ->Arg(5)
    ->Arg(20)
    ->Arg(40)
    ->Unit(sisd::bench::kMillisecond);

void BM_EngineBeamSearchCrimeThreads(sisd::bench::State& state) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const search::ConditionPool pool =
      search::ConditionPool::Build(data.dataset.descriptions, 4);
  const search::SearchConfig config = CrimeDepth2Config(
      /*beam_width=*/40, static_cast<int>(state.range(0)));
  const si::DescriptionLengthParams dl;
  size_t evaluated = 0;
  for (auto _ : state) {
    search::SiLocationEvaluator evaluator(model.Value(),
                                          data.dataset.targets, dl);
    const search::SearchResult result = search::BeamSearch(
        data.dataset.descriptions, pool, config, evaluator);
    sisd::bench::DoNotOptimize(result);
    evaluated += result.num_evaluated;
  }
  state.SetItemsProcessed(int64_t(evaluated));
}
SISD_BENCHMARK(BM_EngineBeamSearchCrimeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(sisd::bench::kMillisecond);

void BM_MinerMineNext(sisd::bench::State& state) {
  datagen::CrimeConfig data_config;
  data_config.num_rows = static_cast<size_t>(state.range(0));
  data_config.num_descriptions = static_cast<size_t>(state.range(1));
  const datagen::CrimeData data = datagen::MakeCrimeLike(data_config);

  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.max_depth = 2;
  config.search.beam_width = 20;
  config.search.min_coverage = 20;
  config.search.num_threads = static_cast<int>(state.range(2));

  size_t evaluated = 0;
  for (auto _ : state) {
    // Fresh miner per iteration: MineNext mutates the model, and a fixed
    // model snapshot keeps iterations comparable.
    state.PauseTiming();
    Result<core::IterativeMiner> miner =
        core::IterativeMiner::Create(data.dataset, config);
    miner.status().CheckOK();
    state.ResumeTiming();
    Result<core::IterationResult> iteration = miner.Value().MineNext();
    iteration.status().CheckOK();
    evaluated += iteration.Value().candidates_evaluated;
  }
  state.SetItemsProcessed(int64_t(evaluated));
}
SISD_BENCHMARK(BM_MinerMineNext)
    // N rows x M descriptions sweep, single-threaded.
    ->Args({500, 30, 1})
    ->Args({500, 122, 1})
    ->Args({1994, 30, 1})
    ->Args({1994, 122, 1})
    // Thread scaling at the paper-sized shape.
    ->Args({1994, 122, 2})
    ->Args({1994, 122, 4})
    ->Unit(sisd::bench::kMillisecond);

}  // namespace

SISD_BENCHMARK_MAIN();
