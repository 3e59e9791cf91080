// The paper's introductory example (§I, Fig. 1): mining the crime dataset
// and inspecting how the top subgroup's target distribution deviates from
// the full data, via Gaussian-kernel density estimates.
//
// Prints an ASCII rendition of Fig. 1: the KDE of violent crime over the
// full data vs within the top subgroup.

#include <cstdio>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "datagen/crime.hpp"
#include "stats/kde.hpp"

namespace {

void PrintAsciiDensity(const char* title, const std::vector<double>& density,
                       double lo, double hi) {
  double peak = 0.0;
  for (double d : density) peak = std::max(peak, d);
  std::printf("%s (grid %.2f..%.2f, peak %.2f)\n", title, lo, hi, peak);
  const int kHeight = 8;
  for (int row = kHeight; row >= 1; --row) {
    std::string line;
    for (double d : density) {
      line += (d / peak * kHeight >= row - 0.5) ? '#' : ' ';
    }
    std::printf("  |%s\n", line.c_str());
  }
  std::printf("  +");
  for (size_t i = 0; i < density.size(); ++i) std::printf("-");
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace sisd;

  const datagen::CrimeData data = datagen::MakeCrimeLike();

  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.max_depth = 2;
  config.search.min_coverage = 20;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();
  const data::Dataset& dataset = session.Value().dataset();

  Result<core::IterationResult> result = session.Value().MineNext();
  result.status().CheckOK();
  const core::ScoredLocationPattern& top = result.Value().location;

  std::printf("top pattern: %s\n",
              top.Describe(dataset.descriptions).c_str());
  const double coverage = 100.0 * double(top.pattern.subgroup.Coverage()) /
                          double(dataset.num_rows());
  std::printf("coverage: %.1f%% of districts ", coverage);
  std::printf("(paper: 20.5%%, intention 'PctIlleg >= 0.39')\n");
  std::printf("crime mean: %.2f in subgroup vs %.2f overall ",
              top.pattern.mean[0], data.truth.overall_mean);
  std::printf("(paper: 0.53 vs 0.24)\n\n");

  // Fig. 1: distribution of the target over the full data and within the
  // subgroup, as Gaussian-kernel smoothed estimates.
  std::vector<double> all_values, subgroup_values;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    all_values.push_back(dataset.targets(i, 0));
  }
  for (size_t i : top.pattern.subgroup.extension.ToRows()) {
    subgroup_values.push_back(dataset.targets(i, 0));
  }
  const auto kde_all =
      stats::KernelDensity::WithSilvermanBandwidth(all_values);
  const auto kde_subgroup =
      stats::KernelDensity::WithSilvermanBandwidth(subgroup_values);
  const int kGrid = 72;
  PrintAsciiDensity("distribution, full data",
                    kde_all.DensityOnGrid(0.0, 1.0, kGrid), 0.0, 1.0);
  PrintAsciiDensity("distribution, within subgroup",
                    kde_subgroup.DensityOnGrid(0.0, 1.0, kGrid), 0.0, 1.0);
  std::printf(
      "\nThe subgroup clearly covers the upper tail of the crime-rate\n"
      "distribution, mirroring Fig. 1 of the paper.\n");
  return 0;
}
