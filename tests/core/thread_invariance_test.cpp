// Thread-count invariance of the full mining loop: the same dataset mined
// with num_threads in {1, 2, 8} must produce byte-identical `Describe()`
// output for every returned pattern, across several iterations (the
// parallel engine reduces scores in candidate-index order, so scheduling
// can never leak into results).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/synthetic.hpp"

namespace sisd::core {
namespace {

MinerConfig ConfigWithThreads(int num_threads) {
  MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 50;
  config.search.min_coverage = 5;
  config.search.num_threads = num_threads;
  config.spread_optimizer.num_random_starts = 2;
  return config;
}

/// Runs `iterations` mining iterations and renders every returned pattern
/// (top location + spread + full ranked list) to one transcript string.
std::string MineTranscript(const data::Dataset& dataset, int num_threads,
                           int iterations) {
  Result<MiningSession> session =
      MiningSession::Create(dataset, ConfigWithThreads(num_threads));
  if (!session.ok()) return "create failed: " + session.status().ToString();
  std::string transcript;
  for (int i = 0; i < iterations; ++i) {
    Result<IterationResult> iteration = session.Value().MineNext();
    if (!iteration.ok()) {
      return "iteration failed: " + iteration.status().ToString();
    }
    const IterationResult& result = iteration.Value();
    transcript += result.location.Describe(dataset.descriptions) + "\n";
    if (result.spread.has_value()) {
      transcript += result.spread->Describe(dataset.descriptions) + "\n";
    }
    for (const ScoredLocationPattern& ranked : result.ranked) {
      transcript += ranked.Describe(dataset.descriptions) + "\n";
    }
    transcript +=
        "evaluated=" + std::to_string(result.candidates_evaluated) + "\n";
  }
  return transcript;
}

TEST(ThreadInvarianceTest, DescribeOutputIsByteIdenticalAcrossThreadCounts) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  const std::string reference = MineTranscript(data.dataset, 1, 3);
  ASSERT_NE(reference.find("SI="), std::string::npos) << reference;
  for (int threads : {2, 8}) {
    EXPECT_EQ(reference, MineTranscript(data.dataset, threads, 3))
        << "num_threads=" << threads << " diverged";
  }
}

}  // namespace
}  // namespace sisd::core
