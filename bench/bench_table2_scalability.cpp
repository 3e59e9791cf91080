// Reproduces Table II of the paper: wall-clock time to re-fit the MaxEnt
// background distribution from scratch as mined patterns accumulate
// (iterations 1..20), for location and spread patterns independently, on
// all four dataset shapes:
//   GSE (n=412, dy=5), WQ (n=1060, dy=16), Cr (n=1994, dy=1),
//   Ma (n=2220, dy=124).
// As in the paper, the spread column is not reported for the mammals data
// (binary targets make spread patterns uninformative).
//
// Shape expectations vs the paper (MATLAB -> C++ changes absolute scale):
//  - refit time grows superlinearly with the number of patterns;
//  - the mammals column dwarfs the others for location patterns (each
//    refit pays O(dy^3) factorizations, dy = 124);
//  - spread refits stay comparatively cheap (rank-1 updates, no dy^3 solve
//    per constraint).

#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/session.hpp"
#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/mammals.hpp"
#include "datagen/water.hpp"

namespace {

using namespace sisd;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Column {
  std::string name;
  double init_seconds = 0.0;
  std::vector<double> refit_seconds;  // per iteration 1..kIterations
};

constexpr int kIterations = 20;

/// Mines `kIterations` patterns on `dataset` and measures, per iteration,
/// the time of a full from-scratch coordinate-descent refit with all
/// patterns registered so far. `spread_mode` registers the spread
/// constraints instead of the location ones.
Column MeasureDataset(const data::Dataset& dataset, const std::string& name,
                      bool spread_mode, size_t min_coverage) {
  Column out;
  out.name = name;

  core::MinerConfig config;
  config.mix = spread_mode ? core::PatternMix::kLocationAndSpread
                           : core::PatternMix::kLocationOnly;
  config.search.max_depth = 1;  // the timing study needs patterns, not depth
  config.search.beam_width = 8;
  config.search.min_coverage = min_coverage;
  config.spread_optimizer.num_random_starts = 1;
  config.spread_optimizer.max_iterations = 60;

  Result<core::MiningSession> session =
      core::MiningSession::Create(dataset, config);
  session.status().CheckOK();

  // Timed initial fit (empirical moments + Cholesky).
  const Clock::time_point t0 = Clock::now();
  Result<model::BackgroundModel> initial =
      model::BackgroundModel::CreateFromData(dataset.targets);
  initial.status().CheckOK();
  const Clock::time_point t1 = Clock::now();
  out.init_seconds = Seconds(t0, t1);

  model::PatternAssimilator timed(std::move(initial).MoveValue());
  for (int iter = 0; iter < kIterations; ++iter) {
    Result<core::IterationResult> mined = session.Value().MineNext();
    mined.status().CheckOK();
    const core::IterationResult& it = mined.Value();
    if (spread_mode && it.spread.has_value()) {
      timed
          .AddSpreadPattern(it.spread->pattern.subgroup.extension,
                            it.spread->pattern.direction,
                            it.location.pattern.mean,
                            it.spread->pattern.variance)
          .CheckOK();
    } else {
      timed
          .AddLocationPattern(it.location.pattern.subgroup.extension,
                              it.location.pattern.mean)
          .CheckOK();
    }
    const Clock::time_point a = Clock::now();
    timed.RefitFromScratch(100, 1e-9).status().CheckOK();
    const Clock::time_point b = Clock::now();
    out.refit_seconds.push_back(Seconds(a, b));
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Table II: background-distribution refit time (seconds) ===\n\n");
  std::printf("generating datasets...\n");
  const datagen::GseData gse = datagen::MakeGseLike();
  const datagen::WaterData water = datagen::MakeWaterLike();
  const datagen::CrimeData crime = datagen::MakeCrimeLike();
  const datagen::MammalsData mammals = datagen::MakeMammalsLike();

  std::printf("mining + timing (location columns)...\n");
  std::vector<Column> location;
  location.push_back(MeasureDataset(gse.dataset, "GSE", false, 10));
  location.push_back(MeasureDataset(water.dataset, "WQ", false, 20));
  location.push_back(MeasureDataset(crime.dataset, "Cr", false, 20));
  location.push_back(MeasureDataset(mammals.dataset, "Ma", false, 50));

  std::printf("mining + timing (spread columns)...\n\n");
  std::vector<Column> spread;
  spread.push_back(MeasureDataset(gse.dataset, "GSE", true, 10));
  spread.push_back(MeasureDataset(water.dataset, "WQ", true, 20));
  spread.push_back(MeasureDataset(crime.dataset, "Cr", true, 20));

  std::printf("%-10s | %-43s | %-32s\n", "", "Location pattern",
              "Spread pattern");
  std::printf("%-10s | %10s %10s %10s %10s | %10s %10s %10s\n", "Iteration",
              "GSE", "WQ", "Cr", "Ma", "GSE", "WQ", "Cr");
  std::printf("%-10s | %10.4f %10.4f %10.4f %10.4f |\n", "Init",
              location[0].init_seconds, location[1].init_seconds,
              location[2].init_seconds, location[3].init_seconds);
  for (int iter = 0; iter < kIterations; ++iter) {
    std::printf("%-10d | %10.4f %10.4f %10.4f %10.4f | %10.4f %10.4f %10.4f\n",
                iter + 1, location[0].refit_seconds[iter],
                location[1].refit_seconds[iter],
                location[2].refit_seconds[iter],
                location[3].refit_seconds[iter],
                spread[0].refit_seconds[iter], spread[1].refit_seconds[iter],
                spread[2].refit_seconds[iter]);
  }

  // Shape summary vs the paper (iteration 10 as base: early iterations are
  // sub-millisecond and timer-noise dominated in this C++ implementation).
  auto growth = [](const Column& c) {
    const double base = c.refit_seconds[9];
    const double late = c.refit_seconds[kIterations - 1];
    return base > 0.0 ? late / base : 0.0;
  };
  std::printf("\nshape checks (paper Table II):\n");
  std::printf(
      "  growth iter10 -> iter20 (location): GSE x%.1f, WQ x%.1f, Cr x%.1f, "
      "Ma x%.1f (paper: x3-5, superlinear in #patterns)\n",
      growth(location[0]), growth(location[1]), growth(location[2]),
      growth(location[3]));
  std::printf(
      "  mammals vs GSE at iter 20 (location): x%.0f (paper: ~x200 at iter "
      "10 — dy=124 dominates; the paper aborted the mammals column after "
      "iter 10 at ~19 min)\n",
      location[0].refit_seconds[kIterations - 1] > 0.0
          ? location[3].refit_seconds[kIterations - 1] /
                location[0].refit_seconds[kIterations - 1]
          : 0.0);
  std::printf(
      "  spread column never exhibits the mammals blow-up: max spread refit "
      "%.3fs vs mammals location %.3fs (paper: spread updates are rank-1, "
      "no dy^3 growth)\n",
      std::max({spread[0].refit_seconds[kIterations - 1],
                spread[1].refit_seconds[kIterations - 1],
                spread[2].refit_seconds[kIterations - 1]}),
      location[3].refit_seconds[kIterations - 1]);
  return 0;
}
