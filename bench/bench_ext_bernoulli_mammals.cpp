// Extension bench (paper §III-B / §V future work): treating binary targets
// with a Bernoulli background model instead of the Gaussian one.
//
// The paper models the 124 binary species-presence targets with the
// Gaussian MaxEnt model and remarks that the binarity "is another form of
// background knowledge that could in principle be incorporated ... but it
// would lead to different derivations". This bench quantifies what the
// proper Bernoulli treatment changes on the mammals-shaped data:
//   - the Gaussian model's 95% expectation intervals routinely escape
//     [0, 1] (impossible presence rates); the Bernoulli model's never do;
//   - both models agree on which species make the cold-region pattern
//     interesting (the planted fauna), so the paper's qualitative findings
//     are robust to the misspecification.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/session.hpp"
#include "datagen/mammals.hpp"
#include "model/bernoulli_model.hpp"
#include "si/interestingness.hpp"

int main() {
  using namespace sisd;

  std::printf(
      "=== Extension: Bernoulli vs Gaussian background on binary targets "
      "===\n\n");
  const datagen::MammalsData data = datagen::MakeMammalsLike();

  // Mine the top pattern with the paper's Gaussian machinery.
  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.max_depth = 2;
  config.search.beam_width = 16;
  config.search.min_coverage = 50;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();
  Result<core::IterationResult> result = session.Value().MineNext();
  result.status().CheckOK();
  const auto& top = result.Value().location;
  const auto& ext = top.pattern.subgroup.extension;
  std::printf("pattern under study: %s (n=%zu)\n\n",
              top.pattern.subgroup.intention
                  .ToString(dataset.descriptions)
                  .c_str(),
              ext.count());

  // Fresh prior models of both families.
  Result<model::BackgroundModel> gaussian =
      model::BackgroundModel::CreateFromData(dataset.targets);
  gaussian.status().CheckOK();
  Result<model::BernoulliBackgroundModel> bernoulli =
      model::BernoulliBackgroundModel::CreateFromData(dataset.targets);
  bernoulli.status().CheckOK();

  const model::MeanStatisticMarginal gauss_marginal =
      gaussian.Value().MeanStatMarginal(ext);
  const linalg::Vector bern_expected =
      bernoulli.Value().ExpectedSubgroupMean(ext);
  const linalg::Vector bern_ic =
      bernoulli.Value().PerAttributeIC(ext, top.pattern.mean);
  const linalg::Vector gauss_ic = si::PerAttributeLocationIC(
      gaussian.Value(), ext, top.pattern.mean);

  // How often does the Gaussian 95% interval leave [0, 1]? For large
  // subgroups the mean-statistic sd shrinks as 1/sqrt(|I|), so the effect
  // shows on small subgroups: check a 12-cell one.
  pattern::Extension small(dataset.num_rows());
  {
    const std::vector<size_t> rows = ext.ToRows();
    for (size_t k = 0; k < 12 && k < rows.size(); ++k) {
      small.Insert(rows[k]);
    }
  }
  const model::MeanStatisticMarginal small_marginal =
      gaussian.Value().MeanStatMarginal(small);
  size_t gaussian_escapes = 0;
  for (size_t s = 0; s < dataset.num_targets(); ++s) {
    const double sd = std::sqrt(small_marginal.cov(s, s));
    const double lo = small_marginal.mean[s] - 1.96 * sd;
    const double hi = small_marginal.mean[s] + 1.96 * sd;
    if (lo < 0.0 || hi > 1.0) ++gaussian_escapes;
  }
  std::printf(
      "for a 12-cell subgroup: Gaussian 95%% expectation intervals\n"
      "escaping [0,1]: %zu / %zu species; Bernoulli expectations stay in\n"
      "[0,1] by construction.\n\n",
      gaussian_escapes, dataset.num_targets());

  // Top-5 species under each model's per-attribute IC ranking.
  auto top5 = [&](const linalg::Vector& ic) {
    std::vector<size_t> order(ic.size());
    for (size_t s = 0; s < order.size(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(),
              [&ic](size_t a, size_t b) { return ic[a] > ic[b]; });
    order.resize(5);
    return order;
  };
  const std::vector<size_t> gauss_top = top5(gauss_ic);
  const std::vector<size_t> bern_top = top5(bern_ic);
  std::printf("top-5 surprising species, Gaussian model:\n");
  for (size_t s : gauss_top) {
    std::printf("  %-28s observed %.2f expected %.2f (IC %.1f)\n",
                dataset.target_names[s].c_str(), top.pattern.mean[s],
                gauss_marginal.mean[s], gauss_ic[s]);
  }
  std::printf("top-5 surprising species, Bernoulli model:\n");
  for (size_t s : bern_top) {
    std::printf("  %-28s observed %.2f expected %.2f (IC %.1f)\n",
                dataset.target_names[s].c_str(), top.pattern.mean[s],
                bern_expected[s], bern_ic[s]);
  }
  size_t overlap = 0;
  for (size_t a : gauss_top) {
    for (size_t b : bern_top) {
      if (a == b) ++overlap;
    }
  }
  std::printf(
      "\nranking agreement (top-5 overlap): %zu/5\n"
      "joint pattern IC: Gaussian %.1f vs Bernoulli (sum of marginals, "
      "independent columns) %.1f\n",
      overlap, top.score.ic, bern_ic.Sum());
  std::printf(
      "\nexpected shape: large top-5 overlap (the paper's findings are\n"
      "robust); the Bernoulli model fixes the impossible expectation\n"
      "intervals the Gaussian model produces for near-0/1 presence rates.\n");
  return 0;
}
