// The river water quality case study (§III-D, Figs. 9-10): ordinal
// bioindicator descriptors (taxon densities at levels 0/1/3/5), 16
// physical/chemical targets.
//
// Headline reproduced from the paper: the top location pattern is a
// pollution signature ("Gammarus fossarum absent AND Tubifex abundant")
// with elevated oxygen-demand chemistry, and — unusually — the top spread
// direction is a sparse HIGH-variance direction over (BOD, KMnO4):
// polluted rivers are not just dirtier on average, they are also more
// variable.

#include <cmath>
#include <cstdio>

#include "core/session.hpp"
#include "datagen/water.hpp"

int main() {
  using namespace sisd;

  const datagen::WaterData data = datagen::MakeWaterLike();
  std::printf("dataset: %s (n=%zu samples, %zu bioindicators, %zu chemistry targets)\n\n",
              data.dataset.name.c_str(), data.dataset.num_rows(),
              data.dataset.num_descriptions(), data.dataset.num_targets());

  core::MinerConfig config;
  config.search.min_coverage = 20;
  config.search.max_depth = 2;

  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();

  Result<core::IterationResult> result = session.Value().MineNext();
  result.status().CheckOK();
  const core::IterationResult& it = result.Value();

  std::printf("location pattern: %s\n",
              it.location.Describe(dataset.descriptions).c_str());
  std::printf("(paper: 'Gammarus fossarum <= 0 AND Tubifex >= 3', 91 records)\n\n");

  std::printf("chemistry means, subgroup vs overall:\n");
  for (size_t t = 0; t < dataset.num_targets(); ++t) {
    double overall = 0.0;
    for (size_t i = 0; i < dataset.num_rows(); ++i) {
      overall += dataset.targets(i, t);
    }
    overall /= double(dataset.num_rows());
    std::printf("  %-9s %8.2f vs %8.2f\n",
                dataset.target_names[t].c_str(),
                it.location.pattern.mean[t], overall);
  }

  if (it.spread.has_value()) {
    std::printf("\nspread pattern direction w (largest weights):\n");
    for (size_t t = 0; t < dataset.num_targets(); ++t) {
      const double weight = it.spread->pattern.direction[t];
      if (std::fabs(weight) > 0.15) {
        std::printf("  %-9s %+.3f\n", dataset.target_names[t].c_str(),
                    weight);
      }
    }
    const double expected = it.spread->score.approx.MeanValue();
    std::printf(
        "\nobserved variance along w: %.2f, expected under model: %.2f\n"
        "=> a %s-variance spread pattern (paper finds HIGH variance,\n"
        "   concentrated on BOD and KMnO4)\n",
        it.spread->pattern.variance, expected,
        it.spread->pattern.variance > expected ? "HIGH" : "LOW");
  }
  return 0;
}
