// Reproduces Fig. 2 of the paper: the top spread pattern found in each of
// the first three iterations on the synthetic data (§III-A). The paper
// plots the data with the embedded clusters highlighted and a black line
// for "the angle of the most surprising variance direction".
//
// Shape checks printed here:
//  - iterations 1-3 recover the three planted 40-point clusters exactly
//    (by their single-condition label description);
//  - the pattern center matches the planted cluster center (distance 2
//    from the origin);
//  - the most surprising variance direction is axis-aligned with the
//    planted cluster covariance (it is the squeezed axis: every direction
//    of a tight cluster has less variance than the background expects, and
//    the IC diverges as the variance ratio drops to 0).

#include <cmath>
#include <cstdio>

#include "core/session.hpp"
#include "datagen/synthetic.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Fig. 2: top synthetic patterns, iterations 1-3 ===\n\n");
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  std::printf("data: %zu points, 3 embedded clusters of 40 at distance 2\n\n",
              data.dataset.num_rows());

  core::MinerConfig config;
  config.search.min_coverage = 5;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();

  for (int iteration = 1; iteration <= 3; ++iteration) {
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    const core::IterationResult& it = result.Value();

    int matched = -1;
    for (size_t k = 0; k < data.truth.cluster_extensions.size(); ++k) {
      if (it.location.pattern.subgroup.extension ==
          data.truth.cluster_extensions[k]) {
        matched = static_cast<int>(k);
      }
    }
    std::printf("iteration %d (Fig. 2%c):\n", iteration, 'a' + iteration);
    std::printf("  pattern: %s, n=%zu, SI=%.2f\n",
                it.location.pattern.subgroup.intention
                    .ToString(dataset.descriptions)
                    .c_str(),
                it.location.pattern.subgroup.Coverage(),
                it.location.score.si);
    std::printf("  matches planted cluster: %s\n",
                matched >= 0 ? "yes" : "NO (shape violation!)");
    std::printf("  center: (%.2f, %.2f)", it.location.pattern.mean[0],
                it.location.pattern.mean[1]);
    if (matched >= 0) {
      const auto& truth_center =
          data.truth.cluster_centers[static_cast<size_t>(matched)];
      std::printf("  planted: (%.2f, %.2f)", truth_center[0],
                  truth_center[1]);
    }
    std::printf("\n");
    if (it.spread.has_value() && matched >= 0) {
      const auto& w = it.spread->pattern.direction;
      const double angle = std::atan2(w[1], w[0]) * 180.0 / M_PI;
      const auto& main_dir =
          data.truth.cluster_main_directions[static_cast<size_t>(matched)];
      const linalg::Vector minor_dir{-main_dir[1], main_dir[0]};
      std::printf(
          "  spread direction: (%.3f, %.3f), angle %.1f deg, "
          "|dot with planted minor axis| = %.3f\n",
          w[0], w[1], angle, std::fabs(w.Dot(minor_dir)));
      std::printf(
          "  variance along w: %.4f vs expected %.3f (spread SI %.2f)\n",
          it.spread->pattern.variance, it.spread->score.approx.MeanValue(),
          it.spread->score.si);
    }
    std::printf("\n");
  }
  std::printf(
      "paper: iterations 1-3 recover the embedded subgroups and the\n"
      "direction along which each subgroup's spread differs most from the\n"
      "full-data covariance.\n");
  return 0;
}
