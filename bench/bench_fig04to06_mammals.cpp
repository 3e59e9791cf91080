// Reproduces Figs. 4-6 of the paper (§III-B, mammals case study):
//  - Fig. 6: the intentions and extensions of the top three location
//    patterns over three iterations (paper: cold March in the north+Alps;
//    very dry August in the south; dry October + warm wettest quarter in
//    the east). Extensions are summarized by their mean latitude/longitude
//    and coverage, standing in for the paper's maps.
//  - Figs. 4-5: the most surprising species of the first pattern, with
//    observed vs expected presence rates and the 95% CI of the model
//    (paper: wood mouse absent; mountain hare, moose present).
//
// Substrate note: the mammal atlas is replaced by the seeded mammals-like
// generator with planted cold-north / dry-south / dry-east faunas.
// Iterations 1-2 find the north and the south; iteration 3 finds
// south-west Europe (centroid lat 41.5, lon -0.5), not the dry east.
// case_study_test's MammalsCaseStudyTest asserts this shape.

#include <cmath>
#include <cstdio>
#include <vector>

#include <algorithm>

#include "core/session.hpp"
#include "datagen/mammals.hpp"
#include "si/interestingness.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Figs. 4-6: mammals case study (dy = 124 targets) ===\n\n");
  const datagen::MammalsData data = datagen::MakeMammalsLike();

  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;  // binary targets: no spread
  config.search.max_depth = 2;
  config.search.beam_width = 16;
  config.search.min_coverage = 50;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();

  static const char* kPaperPatterns[3] = {
      "temp_mar <= -1.68 (northern Europe + Alps)",
      "rain_aug <= 47.62 (very south of Europe)",
      "rain_oct <= 45.25 AND temp_wettest_q >= 16.32 (eastern Europe)"};

  for (int iteration = 1; iteration <= 3; ++iteration) {
    // Snapshot the model BEFORE mining so the species ranking reflects the
    // surprise at discovery time.
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    const core::ScoredLocationPattern& top = result.Value().location;
    const auto& ext = top.pattern.subgroup.extension;

    double lat = 0.0, lon = 0.0;
    for (size_t i : ext.ToRows()) {
      lat += data.latitude[i];
      lon += data.longitude[i];
    }
    lat /= double(ext.count());
    lon /= double(ext.count());

    std::printf("--- iteration %d (Fig. 6%c) ---\n", iteration,
                'a' + iteration - 1);
    std::printf("  paper:    %s\n", kPaperPatterns[iteration - 1]);
    std::printf("  measured: %s\n",
                top.pattern.subgroup.intention
                    .ToString(dataset.descriptions)
                    .c_str());
    std::printf("  coverage %zu/%zu cells, centroid (lat %.1f, lon %.1f), "
                "IC %.1f, SI %.2f\n",
                ext.count(), dataset.num_rows(), lat, lon, top.score.ic,
                top.score.si);

    if (iteration == 1) {
      // Figs. 4-5: rank species by per-attribute SI under the pre-mining
      // model ("the most surprising species as ranked by SI", Fig. 5) and
      // print observed vs expected with the model's 95% CI.
      Result<model::BackgroundModel> prior =
          model::BackgroundModel::CreateFromData(dataset.targets);
      prior.status().CheckOK();
      const model::MeanStatisticMarginal marginal =
          prior.Value().MeanStatMarginal(ext);
      const std::vector<size_t> ranking = si::RankAttributesByIC(
          prior.Value(), ext, top.pattern.mean);
      std::printf("\n  Fig. 5: top-5 species ranked by SI "
                  "(observed | expected [95%% CI]):\n");
      for (int r = 0; r < 5; ++r) {
        const size_t s = ranking[static_cast<size_t>(r)];
        const double sd = std::sqrt(marginal.cov(s, s));
        std::printf("    %-28s %.2f | %.2f [%.2f, %.2f]\n",
                    dataset.target_names[s].c_str(),
                    top.pattern.mean[s], marginal.mean[s],
                    marginal.mean[s] - 1.96 * sd,
                    marginal.mean[s] + 1.96 * sd);
      }
      std::printf(
          "  paper: Apodemus_sylvaticus (wood mouse, absent),\n"
          "         Lepus_timidus (mountain hare, present), Alces_alces\n"
          "         (moose, present), Clethrionomys_rufocanus,\n"
          "         Myopus_schisticolor.\n");
    }
    std::printf("\n");
  }
  return 0;
}
