// Ablation: beam width and search depth (paper §III uses width 40 and
// depth 4). Measures search quality (best SI found) and cost (candidates
// evaluated) on the crime-like data, where the planted optimum is a
// depth-1 pattern but many correlated attributes create plateaus.

#include <cstdio>

#include "core/session.hpp"
#include "datagen/crime.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Ablation: beam width / depth vs search quality ===\n\n");
  const datagen::CrimeData data = datagen::MakeCrimeLike();

  std::printf("%8s %7s %14s %12s %10s\n", "width", "depth", "candidates",
              "best SI", "top |C|");
  for (int depth : {1, 2, 3}) {
    for (int width : {1, 5, 20, 40}) {
      core::MinerConfig config;
      config.mix = core::PatternMix::kLocationOnly;
      config.search.beam_width = width;
      config.search.max_depth = depth;
      config.search.min_coverage = 20;
      Result<core::MiningSession> session =
          core::MiningSession::Create(data.dataset, config);
      session.status().CheckOK();
      Result<core::IterationResult> result = session.Value().MineNext();
      result.status().CheckOK();
      std::printf("%8d %7d %14zu %12.2f %10zu\n", width, depth,
                  result.Value().candidates_evaluated,
                  result.Value().location.score.si,
                  result.Value()
                      .location.pattern.subgroup.intention.size());
    }
  }
  std::printf(
      "\nexpected: cost grows ~linearly with width and with depth; best SI\n"
      "is non-decreasing in width at fixed depth. Deeper searches may find\n"
      "higher-SI refinements when the added IC outweighs the +gamma DL\n"
      "cost per condition.\n");

  // Discretization strategy (paper §III-E: "the computation time ... can
  // be controlled through the search parameters (..., discretization
  // strategy for numerical attributes, ...)"): sweep the number of
  // quantile split points per numeric attribute.
  std::printf("\n%8s %14s %12s\n", "splits", "candidates", "best SI");
  for (int splits : {1, 2, 4, 8, 16}) {
    core::MinerConfig config;
    config.mix = core::PatternMix::kLocationOnly;
    config.search.max_depth = 2;
    config.search.num_split_points = splits;
    config.search.min_coverage = 20;
    Result<core::MiningSession> session =
        core::MiningSession::Create(data.dataset, config);
    session.status().CheckOK();
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    std::printf("%8d %14zu %12.2f\n", splits,
                result.Value().candidates_evaluated,
                result.Value().location.score.si);
  }
  std::printf(
      "\nexpected: candidate count grows with the split-point budget; a\n"
      "finer discretization can only refine the threshold of the planted\n"
      "driver condition, so best SI grows mildly and saturates.\n");
  return 0;
}
