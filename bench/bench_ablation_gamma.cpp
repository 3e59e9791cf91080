// Ablation: the description-length weight gamma (paper Remark 1).
//
// The paper fixes gamma = 0.1 and notes that "tuning gamma biases the
// results toward more or fewer conditions". This bench sweeps gamma and
// reports, on the synthetic data, (a) the number of conditions of the top
// pattern and (b) whether the planted one-condition description still wins
// against its redundant two-condition variants.

#include <cstdio>

#include "core/session.hpp"
#include "datagen/synthetic.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Ablation: DL weight gamma (paper default 0.1) ===\n\n");
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();

  std::printf("%8s %16s %12s %10s\n", "gamma", "top #conditions",
              "top SI", "coverage");
  for (double gamma : {0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0}) {
    core::MinerConfig config;
    config.dl.gamma = gamma;
    config.mix = core::PatternMix::kLocationOnly;
    config.search.min_coverage = 5;
    Result<core::MiningSession> session =
        core::MiningSession::Create(data.dataset, config);
    session.status().CheckOK();
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    const core::ScoredLocationPattern& top = result.Value().location;
    std::printf("%8.2f %16zu %12.2f %10zu\n", gamma,
                top.pattern.subgroup.intention.size(), top.score.si,
                top.pattern.subgroup.Coverage());
  }
  std::printf(
      "\nexpected: at gamma = 0 longer (redundant) descriptions tie with\n"
      "shorter ones (IC identical, DL constant), so ties may fall either\n"
      "way; for moderate gamma the one-condition planted description wins;\n"
      "very large gamma squeezes SI toward 0 but cannot change the\n"
      "one-condition optimum further.\n");
  return 0;
}
