// Reproduces Figs. 7-8 of the paper (§III-C, German socio-economics):
//  - Fig. 7: the top location patterns of three iterations (paper:
//    "Children Pop. <= 14.1" = East Germany with LEFT elevated;
//    "Middle-aged Pop. >= 26.9" = large cities with GREEN elevated;
//    "Children Pop. >= 16.4" = the near-complement with LEFT unpopular).
//  - Fig. 8: for the first pattern, the expected vs observed vote means
//    before/after the location update, and the 2-sparse spread direction
//    (paper: w = (0.5704, 0.8214) over (CDU, SPD), variance much smaller
//    than expected).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/session.hpp"
#include "datagen/gse.hpp"
#include "stats/special.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Figs. 7-8: socio-economics case study ===\n\n");
  const datagen::GseData data = datagen::MakeGseLike();

  core::MinerConfig config;
  config.spread_sparsity = 2;
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();

  static const char* kPaperPatterns[3] = {
      "Children Pop. <= 14.1 (East Germany; LEFT up, all others down)",
      "Middle-aged Pop. >= 26.9 (large cities; GREEN up at LEFT's expense)",
      "Children Pop. >= 16.4 (near-complement; LEFT down, others up)"};

  for (int iteration = 1; iteration <= 3; ++iteration) {
    // Expected subgroup mean under the model BEFORE this iteration's
    // patterns are assimilated (the "Model" bars of Fig. 8a).
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    const core::IterationResult& it = result.Value();
    const auto& ext = it.location.pattern.subgroup.extension;

    std::printf("--- iteration %d (Fig. 7%c) ---\n", iteration,
                'a' + iteration - 1);
    std::printf("  paper:    %s\n", kPaperPatterns[iteration - 1]);
    std::printf("  measured: %s (n=%zu, SI=%.2f)\n",
                it.location.pattern.subgroup.intention
                    .ToString(dataset.descriptions)
                    .c_str(),
                ext.count(), it.location.score.si);

    const size_t east_overlap =
        pattern::Extension::IntersectionCount(ext, data.truth.east);
    const size_t city_overlap =
        pattern::Extension::IntersectionCount(ext, data.truth.cities);
    std::printf("  stratum overlap: %.0f%% East, %.0f%% cities\n",
                100.0 * double(east_overlap) / double(ext.count()),
                100.0 * double(city_overlap) / double(ext.count()));

    if (iteration == 1) {
      // Fig. 8a: observed vs expected vote means. The updated model's
      // expectation coincides with the observation (Theorem 1), which is
      // exactly the paper's "Updated Model" bars.
      Result<model::BackgroundModel> prior =
          model::BackgroundModel::CreateFromData(dataset.targets);
      prior.status().CheckOK();
      const model::MeanStatisticMarginal before =
          prior.Value().MeanStatMarginal(ext);
      const linalg::Vector after =
          session.Value().model().ExpectedSubgroupMean(ext);
      std::printf("\n  Fig. 8a: party | observed | model-before | model-after\n");
      for (size_t t = 0; t < dataset.num_targets(); ++t) {
        std::printf("    %-11s %7.2f %10.2f %12.2f\n",
                    dataset.target_names[t].c_str(),
                    it.location.pattern.mean[t], before.mean[t], after[t]);
      }

      if (it.spread.has_value()) {
        const auto& w = it.spread->pattern.direction;
        std::printf("\n  Fig. 8c: 2-sparse spread direction w:\n");
        for (size_t t = 0; t < w.size(); ++t) {
          if (std::fabs(w[t]) > 1e-9) {
            std::printf("    %-11s %+.4f\n",
                        dataset.target_names[t].c_str(), w[t]);
          }
        }
        std::printf("    paper: CDU_2009 +0.5704, SPD_2009 +0.8214\n");
        const double expected = it.spread->score.approx.MeanValue();
        std::printf(
            "  variance along w: observed %.3f vs expected %.3f "
            "(ratio %.3f; paper: much smaller than expected)\n",
            it.spread->pattern.variance, expected,
            it.spread->pattern.variance / expected);

        // Fig. 8c curve: marginal CDF of the location-updated background
        // model along w vs the empirical CDF of the projected subgroup.
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
        const double lo = projected.front() - 3.0;
        const double hi = projected.back() + 3.0;
        std::printf("\n  Fig. 8c series (x, model CDF, empirical CDF):\n");
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
              double(std::lower_bound(projected.begin(), projected.end(),
                                      x) -
                     projected.begin()) /
              double(projected.size());
          std::printf("    %8.2f  %6.3f  %6.3f\n", x, model_cdf, empirical);
        }
        std::printf(
            "  shape: the empirical CDF rises much more steeply than the\n"
            "  model CDF (tiny observed variance along w), as in Fig. 8c.\n");
      }
    }
    std::printf("\n");
  }
  return 0;
}
