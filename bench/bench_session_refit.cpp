// Session-refit benchmarks (bench/harness): the cost of keeping the
// background model current as a persistent session assimilates patterns.
//
// Two families, parameterized over target dimensionality dy (the paper's
// Table II axis) or accumulated constraint count k:
//
//  - BM_SpreadAssimilate: one Theorem-2 spread update, including the
//    O(dy^3) refactorization of each affected group's covariance.
//  - BM_RefitWarm / BM_RefitScratch: cyclic coordinate descent over k
//    accumulated (overlapping) constraints, warm-started from the current
//    parameters vs restarted from the initial model (Table II's full-refit
//    cost).
//
// `scripts/bench_record.py baseline` records these into its comparison
// snapshot.

#include "harness/microbench.hpp"

#include "model/assimilator.hpp"
#include "model/background_model.hpp"
#include "random/rng.hpp"

namespace {

using namespace sisd;
using linalg::Matrix;
using linalg::Vector;
using pattern::Extension;

Matrix RandomSpd(random::Rng* rng, size_t d) {
  Matrix a(d, d);
  for (size_t r = 0; r < d; ++r) {
    for (size_t c = 0; c < d; ++c) a(r, c) = rng->Gaussian();
  }
  Matrix spd = a.MatMul(a.Transposed());
  for (size_t i = 0; i < d; ++i) spd(i, i) += double(d);
  return spd;
}

model::BackgroundModel MakeModel(size_t n, size_t d, uint64_t seed) {
  random::Rng rng(seed);
  Result<model::BackgroundModel> model =
      model::BackgroundModel::Create(n, rng.GaussianVector(d),
                                     RandomSpd(&rng, d));
  model.status().CheckOK();
  return std::move(model).MoveValue();
}

Extension RangeExtension(size_t n, size_t begin, size_t count) {
  Extension ext(n);
  for (size_t i = 0; i < count; ++i) ext.Insert(begin + i);
  return ext;
}

/// One spread update; the model refactorizes each affected group.
void BM_SpreadAssimilate(sisd::bench::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 2000;
  const Extension ext = RangeExtension(n, n / 4, 400);
  random::Rng rng(3);
  Vector w = rng.GaussianVector(d);
  w = w.Normalized();
  for (auto _ : state) {
    state.PauseTiming();
    model::BackgroundModel model = MakeModel(n, d, 2);
    const Vector anchor = model.ExpectedSubgroupMean(ext);
    const double target =
        0.7 * model.ExpectedDirectionalVariance(ext, w, anchor);
    state.ResumeTiming();
    sisd::bench::DoNotOptimize(model.UpdateSpread(ext, w, anchor, target));
  }
}
SISD_BENCHMARK(BM_SpreadAssimilate)->Arg(5)->Arg(16)->Arg(64)->Arg(124);

/// Builds an assimilator with k overlapping location+spread constraints
/// already applied once (the session state after k/2 iterations).
model::PatternAssimilator AccumulateConstraints(size_t k, size_t d) {
  const size_t n = 2000;
  model::PatternAssimilator assimilator(MakeModel(n, d, 7));
  random::Rng rng(11);
  for (size_t i = 0; i < k; ++i) {
    // Overlapping windows so cyclic descent has real coupling to resolve.
    const Extension ext = RangeExtension(n, 100 * i, 500);
    if (i % 2 == 0) {
      Vector target = assimilator.model().ExpectedSubgroupMean(ext);
      for (size_t t = 0; t < d; ++t) target[t] += 0.2 * rng.Gaussian();
      assimilator.AddLocationPattern(ext, target).CheckOK();
    } else {
      Vector w = rng.GaussianVector(d);
      w = w.Normalized();
      const Vector anchor = assimilator.model().ExpectedSubgroupMean(ext);
      const double variance =
          0.8 *
          assimilator.model().ExpectedDirectionalVariance(ext, w, anchor);
      assimilator.AddSpreadPattern(ext, w, anchor, variance).CheckOK();
    }
  }
  return assimilator;
}

void BM_RefitWarm(sisd::bench::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t d = 16;
  const model::PatternAssimilator base = AccumulateConstraints(k, d);
  for (auto _ : state) {
    state.PauseTiming();
    model::PatternAssimilator assimilator = base;
    state.ResumeTiming();
    Result<model::RefitStats> stats = assimilator.Refit(100, 1e-9);
    sisd::bench::DoNotOptimize(stats.ok());
  }
}
SISD_BENCHMARK(BM_RefitWarm)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

void BM_RefitScratch(sisd::bench::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t d = 16;
  const model::PatternAssimilator base = AccumulateConstraints(k, d);
  for (auto _ : state) {
    state.PauseTiming();
    model::PatternAssimilator assimilator = base;
    state.ResumeTiming();
    Result<model::RefitStats> stats =
        assimilator.RefitFromScratch(100, 1e-9);
    sisd::bench::DoNotOptimize(stats.ok());
  }
}
SISD_BENCHMARK(BM_RefitScratch)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

}  // namespace

SISD_BENCHMARK_MAIN();
