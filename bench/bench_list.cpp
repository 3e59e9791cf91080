// Subgroup-list miner benchmarks (bench/harness): the fused-kernel greedy
// engine (search/list_miner) against the naive materializing reference,
// single-threaded and at the hardware thread count, on the synthetic and
// crime scenarios.
//
// `scripts/bench_record.py list` records the comparison into
// BENCH_list.json; the binary's --quality-json mode emits the list-vs-iterative quality
// comparison on all five paper scenarios (deterministic search outputs,
// measured once, not timings): the greedy list's MDL compression gain vs
// the gain of a list assembled from the iterative miner's patterns in
// mined order, both scored by the same si/list_gain codepath.

#include "harness/microbench.hpp"

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "datagen/scenarios.hpp"
#include "kernels/kernels.hpp"
#include "search/list_miner.hpp"
#include "si/list_gain.hpp"

namespace {

using namespace sisd;

search::ListSearchConfig BenchConfig(size_t min_coverage) {
  search::ListSearchConfig config;
  config.search.beam_width = 8;
  config.search.max_depth = 2;
  config.search.top_k = 10;
  config.search.min_coverage = min_coverage;
  config.search.num_threads = 1;
  config.max_rules = 4;
  config.min_captured = min_coverage;
  return config;
}

struct Fixture {
  data::Dataset dataset;
  search::ConditionPool pool;
  size_t min_coverage;

  Fixture(const char* scenario, size_t min_cov)
      : dataset(datagen::MakeScenarioDataset(scenario).Value()),
        pool(search::ConditionPool::Build(dataset.descriptions, 4)),
        min_coverage(min_cov) {}
};

const Fixture& Synth() {
  static const Fixture fixture("synthetic", /*min_cov=*/5);
  return fixture;
}

const Fixture& Crime() {
  static const Fixture fixture("crime", /*min_cov=*/20);
  return fixture;
}

search::SubgroupList MineList(const Fixture& f, int threads, bool naive) {
  search::ListSearchConfig config = BenchConfig(f.min_coverage);
  config.search.num_threads = threads;
  search::SubgroupList list =
      search::MakeEmptySubgroupList(f.dataset.targets, config.gain);
  if (naive) {
    search::ExtendSubgroupListReference(f.dataset.descriptions,
                                        f.dataset.targets, f.pool, config,
                                        &list);
  } else {
    search::ExtendSubgroupList(f.dataset.descriptions, f.dataset.targets,
                               f.pool, config, &list);
  }
  return list;
}

void BM_Synth_ListEngine_1thread(sisd::bench::State& state) {
  for (auto _ : state) {
    const search::SubgroupList list = MineList(Synth(), 1, /*naive=*/false);
    sisd::bench::DoNotOptimize(list.total_gain);
  }
}
SISD_BENCHMARK(BM_Synth_ListEngine_1thread)->Unit(sisd::bench::kMillisecond);

void BM_Synth_ListEngine_allthreads(sisd::bench::State& state) {
  for (auto _ : state) {
    const search::SubgroupList list = MineList(Synth(), 0, /*naive=*/false);
    sisd::bench::DoNotOptimize(list.total_gain);
  }
}
SISD_BENCHMARK(BM_Synth_ListEngine_allthreads)
    ->Unit(sisd::bench::kMillisecond);

void BM_Synth_ListNaive(sisd::bench::State& state) {
  for (auto _ : state) {
    const search::SubgroupList list = MineList(Synth(), 1, /*naive=*/true);
    sisd::bench::DoNotOptimize(list.total_gain);
  }
}
SISD_BENCHMARK(BM_Synth_ListNaive)->Unit(sisd::bench::kMillisecond);

void BM_Crime_ListEngine_1thread(sisd::bench::State& state) {
  for (auto _ : state) {
    const search::SubgroupList list = MineList(Crime(), 1, /*naive=*/false);
    sisd::bench::DoNotOptimize(list.total_gain);
  }
}
SISD_BENCHMARK(BM_Crime_ListEngine_1thread)->Unit(sisd::bench::kMillisecond);

void BM_Crime_ListEngine_allthreads(sisd::bench::State& state) {
  for (auto _ : state) {
    const search::SubgroupList list = MineList(Crime(), 0, /*naive=*/false);
    sisd::bench::DoNotOptimize(list.total_gain);
  }
}
SISD_BENCHMARK(BM_Crime_ListEngine_allthreads)
    ->Unit(sisd::bench::kMillisecond);

void BM_Crime_ListNaive(sisd::bench::State& state) {
  for (auto _ : state) {
    const search::SubgroupList list = MineList(Crime(), 1, /*naive=*/true);
    sisd::bench::DoNotOptimize(list.total_gain);
  }
}
SISD_BENCHMARK(BM_Crime_ListNaive)->Unit(sisd::bench::kMillisecond);

/// Scores an already-mined pattern as the next rule of `list` (captured
/// rows, local model, gain) and appends it — the bridge that lets the
/// iterative miner's output be valued in the list's MDL currency. Returns
/// false (and appends nothing) when earlier rules already captured every
/// row of the pattern: under first-match routing such a rule explains no
/// rows and has no model to fit.
bool AppendPatternAsRule(const linalg::Matrix& targets,
                         const si::ListGainParams& params,
                         pattern::Intention intention,
                         const pattern::Extension& extension,
                         search::SubgroupList* list) {
  const size_t dy = targets.cols();
  const size_t n = targets.rows();
  search::SubgroupRule rule;
  rule.intention = std::move(intention);
  rule.extension = extension;
  rule.captured = pattern::Extension::Intersect(extension, list->uncovered);
  if (rule.captured.count() == 0) return false;
  std::vector<double> column(n);
  std::vector<kernels::MaskedMoments> moments(dy);
  for (size_t j = 0; j < dy; ++j) {
    for (size_t i = 0; i < n; ++i) column[i] = targets(i, j);
    moments[j] = kernels::MaskedMomentsAnd(
        column.data(), rule.captured.blocks().data(),
        rule.captured.blocks().data(), rule.captured.blocks().size());
  }
  si::FitLocalNormalModel(moments.data(), dy, params.variance_floor,
                          &rule.local);
  rule.gain = si::ListGainFromMoments(moments.data(), dy,
                                      list->default_model,
                                      rule.intention.size(), params);
  search::ReplaySubgroupRule(std::move(rule), list);
  return true;
}

/// List-vs-iterative quality on all five scenarios, as JSON. Both lists
/// are scored by the same MDL gain; the iterative one is assembled from
/// the session miner's location patterns in mined order.
int PrintQualityJson() {
  constexpr int kRules = 4;
  std::printf("{\n");
  const char* sep = "";
  for (const std::string& scenario : datagen::ScenarioNames()) {
    const si::ListGainParams params;
    data::Dataset dataset =
        datagen::MakeScenarioDataset(scenario).Value();
    const size_t min_cov = dataset.num_rows() >= 1000 ? 20 : 5;

    // Greedy list miner.
    search::ListSearchConfig config = BenchConfig(min_cov);
    const search::ConditionPool pool =
        search::ConditionPool::Build(dataset.descriptions, 4);
    search::SubgroupList greedy =
        search::MakeEmptySubgroupList(dataset.targets, config.gain);
    search::ExtendSubgroupList(dataset.descriptions, dataset.targets, pool,
                               config, &greedy);

    // Iterative SI miner, its patterns re-valued as a list.
    core::MinerConfig miner;
    miner.search = config.search;
    miner.mix = core::PatternMix::kLocationOnly;
    Result<core::MiningSession> session =
        core::MiningSession::Create(std::move(dataset), miner);
    search::SubgroupList iterative = search::MakeEmptySubgroupList(
        session.Value().dataset().targets, params);
    size_t iterations = 0;
    for (int i = 0; i < kRules; ++i) {
      Result<core::IterationResult> mined = session.Value().MineNext();
      if (!mined.ok()) break;
      if (AppendPatternAsRule(
              session.Value().dataset().targets, params,
              mined.Value().location.pattern.subgroup.intention,
              mined.Value().location.pattern.subgroup.extension,
              &iterative)) {
        ++iterations;
      }
    }

    const size_t rows = greedy.uncovered.universe_size();
    std::printf(
        "%s  \"%s\": {\"greedy_gain\": %.12g, \"greedy_rules\": %zu, "
        "\"greedy_uncovered\": %zu, \"iterative_as_list_gain\": %.12g, "
        "\"iterative_rules\": %zu, \"rows\": %zu}",
        sep, scenario.c_str(), greedy.total_gain, greedy.rules.size(),
        greedy.uncovered.count(), iterative.total_gain, iterations, rows);
    sep = ",\n";
  }
  std::printf("\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quality-json") {
      return PrintQualityJson();
    }
  }
  return sisd::bench::RunMain(argc, argv);
}
