// The German socio-economics case study (§III-C, Figs. 7-8): multivariate
// vote-share targets, iterative mining of location + spread patterns with
// the 2-sparsity constraint on the spread direction.
//
// The paper's findings on the real data, which the planted generator
// mirrors: (1) the top pattern is a low-children-population subgroup
// (East Germany) with strongly elevated LEFT vote; (2) its most surprising
// spread direction is a low-variance direction over (CDU, SPD) — the two
// parties battle for the same voters inside that subgroup.

#include <cstdio>

#include "core/session.hpp"
#include "datagen/gse.hpp"

int main() {
  using namespace sisd;

  const datagen::GseData data = datagen::MakeGseLike();
  std::printf("dataset: %s (n=%zu districts, targets:", data.dataset.name.c_str(),
              data.dataset.num_rows());
  for (const std::string& name : data.dataset.target_names) {
    std::printf(" %s", name.c_str());
  }
  std::printf(")\n\n");

  core::MinerConfig config;
  config.spread_sparsity = 2;  // the paper's interpretability constraint
  config.search.min_coverage = 10;

  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();

  for (int iteration = 1; iteration <= 3; ++iteration) {
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    const core::IterationResult& it = result.Value();

    std::printf("--- iteration %d ---\n", iteration);
    std::printf("location: %s\n",
                it.location.Describe(dataset.descriptions).c_str());
    std::printf("  vote means within subgroup vs overall:\n");
    for (size_t t = 0; t < dataset.num_targets(); ++t) {
      double overall = 0.0;
      for (size_t i = 0; i < dataset.num_rows(); ++i) {
        overall += dataset.targets(i, t);
      }
      overall /= double(dataset.num_rows());
      std::printf("    %-11s %6.2f vs %6.2f (%+.2f)\n",
                  dataset.target_names[t].c_str(),
                  it.location.pattern.mean[t], overall,
                  it.location.pattern.mean[t] - overall);
    }
    if (it.spread.has_value()) {
      std::printf("spread:   %s\n",
                  it.spread->Describe(dataset.descriptions).c_str());
      const double expected = it.spread->score.approx.MeanValue();
      std::printf(
          "  observed variance along w: %.3f, model expected: %.3f "
          "(ratio %.2f -> %s-variance pattern)\n",
          it.spread->pattern.variance, expected,
          it.spread->pattern.variance / expected,
          it.spread->pattern.variance < expected ? "low" : "high");
    }
    std::printf("\n");
  }
  std::printf(
      "Paper reference: top pattern 'Children Pop. <= 14.1' (East Germany,\n"
      "LEFT elevated), spread direction w = (0.5704, 0.8214) over\n"
      "(CDU, SPD) with much smaller variance than expected.\n");
  return 0;
}
