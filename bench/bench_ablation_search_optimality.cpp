// Ablation: heuristic beam search vs exhaustive / branch-and-bound optimum
// (the paper's stated future work, §V: "it may be feasible to devise a
// branch-and-bound approach to mine optimal location patterns").
//
// On the crime-like data (univariate target, where the tight optimistic
// estimator applies) we compare, at depth 2:
//   1. the paper's beam search (width 40),
//   2. plain exhaustive enumeration (the optimal search with its bound
//      switched off: the global optimum),
//   3. best-first branch-and-bound with the tight univariate SI bound, on
//      one thread and on all threads,
// reporting quality found, candidates evaluated and wall-clock. A beam as
// wide as the condition pool is exhaustive at depth 2; it finds the
// optima of the dispersion-corrected family (Boley et al.) for contrast.

#include <chrono>
#include <cstdio>

#include "baseline/quality_measures.hpp"
#include "datagen/crime.hpp"
#include "pattern/patterns.hpp"
#include "search/beam_search.hpp"
#include "search/optimal_search.hpp"
#include "search/si_evaluator.hpp"

int main() {
  using namespace sisd;
  using Clock = std::chrono::steady_clock;

  std::printf("=== Ablation: beam vs exhaustive vs branch-and-bound ===\n\n");
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 1994, .num_descriptions = 40, .seed = 7});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const search::ConditionPool pool =
      search::ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  constexpr size_t kMinCoverage = 20;

  std::printf("%-24s %12s %14s %12s %10s\n", "method", "best SI",
              "evaluated", "pruned", "seconds");

  {  // Beam search (paper settings, depth 2).
    search::SearchConfig config;
    config.max_depth = 2;
    config.min_coverage = kMinCoverage;
    search::SiLocationEvaluator evaluator(model.Value(),
                                          data.dataset.targets, dl);
    const Clock::time_point a = Clock::now();
    const search::SearchResult beam = search::BeamSearch(
        data.dataset.descriptions, pool, config, evaluator);
    const double secs =
        std::chrono::duration<double>(Clock::now() - a).count();
    std::printf("%-24s %12.2f %14zu %12s %10.3f\n", "beam (width 40)",
                beam.best().quality, beam.num_evaluated, "-", secs);
  }

  double exhaustive_best = 0.0;
  struct Row {
    const char* name;
    bool use_bound;
    int num_threads;
  };
  for (const Row& row : {Row{"exhaustive", false, 1},
                         Row{"B&B (1 thread)", true, 1},
                         Row{"B&B (all threads)", true, 0}}) {
    search::OptimalConfig config;
    config.max_depth = 2;
    config.min_coverage = kMinCoverage;
    config.num_threads = row.num_threads;
    config.use_bound = row.use_bound;
    const Clock::time_point a = Clock::now();
    const search::OptimalResult found = search::OptimalLocationSearch(
        data.dataset.descriptions, pool, model.Value(), data.dataset.targets,
        dl, config);
    const double secs =
        std::chrono::duration<double>(Clock::now() - a).count();
    if (!row.use_bound) exhaustive_best = found.best.quality;
    std::printf("%-24s %12.2f %14zu %12zu %10.3f\n", row.name,
                found.best.quality, found.num_evaluated,
                found.num_pruned_nodes, secs);
  }
  std::printf(
      "\nchecks: all four methods must report the same best SI (%.2f);\n"
      "the bounded searches must evaluate strictly fewer candidates than\n"
      "plain exhaustive enumeration.\n",
      exhaustive_best);

  // Dispersion-corrected quality family (Boley et al. 2017): what the
  // classical measure's optimum looks like under the SI lens. The family's
  // exponent trades coverage against shift; the paper's default is 0.5.
  std::printf("\n=== Dispersion-corrected family (exhaustive, depth 2) ===\n");
  std::printf("%-24s %12s %12s %10s %12s\n", "variant", "best q", "SI",
              "coverage", "evaluated");
  search::SearchConfig exhaustive;
  exhaustive.beam_width = static_cast<int>(pool.size());
  exhaustive.max_depth = 2;
  exhaustive.min_coverage = kMinCoverage;
  for (const double exponent : {0.0, 0.5, 1.0}) {
    baseline::DispersionCorrectedParams params;
    params.size_exponent = exponent;
    baseline::MeasureEvaluator evaluator(
        data.dataset.targets, 0,
        baseline::BaselineMeasure::kDispersionCorrected, params);
    const search::SearchResult found = search::BeamSearch(
        data.dataset.descriptions, pool, exhaustive, evaluator);
    const search::ScoredSubgroup& best = found.best();
    const double si =
        si::ScoreLocation(model.Value(), best.extension,
                          pattern::SubgroupMean(data.dataset.targets,
                                                best.extension),
                          best.intention.size(), dl)
            .si;
    std::printf("%-24s %12.3f %12.2f %10zu %12zu\n",
                exponent == 0.5 ? "exponent 0.5 (default)"
                                : (exponent == 0.0 ? "exponent 0.0"
                                                   : "exponent 1.0"),
                best.quality, si, best.extension.count(),
                found.num_evaluated);
  }
  std::printf(
      "\ncheck: the family's optima are high-SI subgroups too (the crime\n"
      "driver is tight), but none may exceed the SI optimum above.\n");
  return 0;
}
