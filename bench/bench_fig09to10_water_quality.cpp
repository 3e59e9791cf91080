// Reproduces Figs. 9-10 of the paper (§III-D, river water quality):
//  - Fig. 10: the top location pattern ("Amphipoda Gammarus fossarum <= 0
//    AND Oligochaeta Tubifex >= 3", 91 records) with above-average BOD,
//    Cl, conductivity, KMnO4, K2Cr2O7 — observed vs expected, before and
//    after the location update.
//  - Fig. 9: the top spread pattern: a sparse weight vector with high
//    weights on BOD and KMnO4, along which the subgroup's variance is much
//    LARGER than expected.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/session.hpp"
#include "datagen/water.hpp"
#include "stats/special.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Figs. 9-10: water quality case study ===\n\n");
  const datagen::WaterData data = datagen::MakeWaterLike();

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
  const auto& ext = it.location.pattern.subgroup.extension;

  std::printf("Fig. 10 location pattern:\n");
  std::printf("  paper:    Gammarus fossarum <= 0 AND Tubifex >= 3 (n=91)\n");
  std::printf("  measured: %s (n=%zu, SI=%.2f)\n",
              it.location.pattern.subgroup.intention
                  .ToString(dataset.descriptions)
                  .c_str(),
              ext.count(), it.location.score.si);
  const size_t overlap =
      pattern::Extension::IntersectionCount(ext, data.truth.polluted);
  std::printf("  overlap with planted pollution signature: %zu/%zu rows\n\n",
              overlap, data.truth.polluted.count());

  // Observed vs model-expected chemistry means (Fig. 10 top-5 attributes).
  Result<model::BackgroundModel> prior =
      model::BackgroundModel::CreateFromData(dataset.targets);
  prior.status().CheckOK();
  const model::MeanStatisticMarginal before =
      prior.Value().MeanStatMarginal(ext);
  std::printf("  attribute | observed | expected (paper: bod, cl, conduct,\n"
              "  kmno4, k2cr2o7 all above average)\n");
  for (size_t t = 0; t < dataset.num_targets(); ++t) {
    const double sd = std::sqrt(before.cov(t, t));
    const double z = (it.location.pattern.mean[t] - before.mean[t]) /
                     (sd > 1e-12 ? sd : 1e-12);
    std::printf("    %-9s %8.2f %9.2f  (z=%+6.1f)\n",
                dataset.target_names[t].c_str(),
                it.location.pattern.mean[t], before.mean[t], z);
  }

  if (it.spread.has_value()) {
    const auto& w = it.spread->pattern.direction;
    std::printf("\nFig. 9 spread pattern weight vector w "
                "(paper: high weights on bod and kmno4):\n");
    for (size_t t = 0; t < w.size(); ++t) {
      if (std::fabs(w[t]) > 0.10) {
        std::printf("    %-9s %+.3f\n", dataset.target_names[t].c_str(),
                    w[t]);
      }
    }
    const double expected = it.spread->score.approx.MeanValue();
    std::printf(
        "  variance along w: observed %.2f vs expected %.2f (ratio %.2f)\n"
        "  paper shape: variance much LARGER than expected — it is also\n"
        "  possible to find higher-variance spread patterns.\n",
        it.spread->pattern.variance, expected,
        it.spread->pattern.variance / expected);

    // Fig. 9b curve: marginal CDF of the location-updated model along w vs
    // the empirical CDF of the projected subgroup. For a high-variance
    // pattern the empirical CDF is the SHALLOWER of the two (the mirror
    // image of Fig. 8c).
    Result<model::BackgroundModel> after_location =
        model::BackgroundModel::CreateFromData(dataset.targets);
    after_location.status().CheckOK();
    after_location.Value()
        .UpdateLocation(ext, it.location.pattern.mean)
        .status()
        .CheckOK();
    std::vector<double> projected;
    for (size_t i : ext.ToRows()) {
      double proj = 0.0;
      for (size_t t = 0; t < w.size(); ++t) {
        proj += dataset.targets(i, t) * w[t];
      }
      projected.push_back(proj);
    }
    std::sort(projected.begin(), projected.end());
    const double lo = projected.front() - 1.0;
    const double hi = projected.back() + 1.0;
    std::printf("\n  Fig. 9b series (x, model CDF, empirical CDF):\n");
    const std::vector<size_t> counts =
        after_location.Value().GroupCounts(ext);
    for (int g = 0; g <= 10; ++g) {
      const double x = lo + (hi - lo) * double(g) / 10.0;
      double model_cdf = 0.0;
      for (size_t grp = 0; grp < counts.size(); ++grp) {
        if (counts[grp] == 0) continue;
        const auto& group = after_location.Value().group(grp);
        const double mean = group.mu.Dot(w);
        const double sd = std::sqrt(group.sigma.QuadraticForm(w));
        model_cdf += double(counts[grp]) / double(ext.count()) *
                     stats::NormalCdf(x, mean, sd);
      }
      const double empirical =
          double(std::lower_bound(projected.begin(), projected.end(), x) -
                 projected.begin()) /
          double(projected.size());
      std::printf("    %8.2f  %6.3f  %6.3f\n", x, model_cdf, empirical);
    }
  }
  return 0;
}
