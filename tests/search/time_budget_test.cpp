/// Wall-clock budget expiry: a search cut off by `time_budget_seconds`
/// must set `hit_time_budget`, still return a valid (partial) ranked list,
/// and overshoot the deadline by at most a bounded number of scoring
/// chunks — not a whole beam level.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "reference_search.hpp"

namespace sisd::search {
namespace {

using reference::ReferenceBeamSearch;

/// `rows` x `cols` numeric columns; the default 200 x 12 gives a pool of
/// ~96 conditions, so level 2 generates thousands of candidates — plenty
/// of work to interrupt.
data::DataTable MakeWideTable(int rows = 200, int cols = 12) {
  data::DataTable table;
  for (int j = 0; j < cols; ++j) {
    std::vector<double> values;
    values.reserve(size_t(rows));
    for (int i = 0; i < rows; ++i) {
      values.push_back(std::fmod(double(i) * (1.3 + 0.17 * double(j)), 19.0));
    }
    table.AddColumn(data::Column::Numeric(StrFormat("x%d", j), values))
        .CheckOK();
  }
  return table;
}

/// Coverage-scoring quality function, optionally slowed down to make the
/// budget expire mid-search deterministically enough to observe.
reference::Quality CoverageQuality(std::chrono::microseconds delay) {
  return [delay](const pattern::Intention& intention,
                 const pattern::Extension& extension) {
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    return double(extension.count()) / double(1 + intention.size());
  };
}

SearchConfig WideConfig() {
  SearchConfig config;
  config.beam_width = 15;
  config.max_depth = 3;
  config.top_k = 50;
  config.min_coverage = 2;
  config.num_threads = 1;
  return config;
}

TEST(TimeBudgetTest, ZeroBudgetStopsBeforeAnyWork) {
  const data::DataTable table = MakeWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config = WideConfig();
  config.time_budget_seconds = 0.0;
  const SearchResult result = ReferenceBeamSearch(
      table, pool, config, CoverageQuality(std::chrono::microseconds(0)));
  EXPECT_TRUE(result.hit_time_budget);
  EXPECT_EQ(result.num_evaluated, 0u);
  EXPECT_TRUE(result.top.empty());
}

TEST(TimeBudgetTest, ExpiryReturnsValidPartialRankedList) {
  const data::DataTable table = MakeWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);

  // Reference: the unbudgeted search (fast scorer) for the total count.
  SearchConfig config = WideConfig();
  const SearchResult full = ReferenceBeamSearch(
      table, pool, config, CoverageQuality(std::chrono::microseconds(0)));
  ASSERT_FALSE(full.hit_time_budget);
  ASSERT_GT(full.num_evaluated, 1000u);

  // Budgeted run with a scorer slow enough (200us/candidate) that the
  // 30ms budget expires long before the search could finish (the full
  // search would need > full.num_evaluated * 200us >= 200ms).
  const auto delay = std::chrono::microseconds(200);
  config.time_budget_seconds = 0.03;
  const auto start = std::chrono::steady_clock::now();
  const SearchResult partial =
      ReferenceBeamSearch(table, pool, config, CoverageQuality(delay));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_TRUE(partial.hit_time_budget);
  // Partial, not empty: level 1 (96 candidates, ~20ms) fits the budget.
  EXPECT_GT(partial.num_evaluated, 0u);
  EXPECT_LT(partial.num_evaluated, full.num_evaluated);

  // The ranked list is valid: deduplicated, sorted descending, every entry
  // scored and materialized.
  ASSERT_FALSE(partial.top.empty());
  for (size_t i = 0; i < partial.top.size(); ++i) {
    const ScoredSubgroup& entry = partial.top[i];
    EXPECT_TRUE(std::isfinite(entry.quality));
    EXPECT_GT(entry.extension.count(), 0u);
    EXPECT_EQ(entry.extension,
              entry.intention.Evaluate(table));
    if (i > 0) {
      EXPECT_LE(entry.quality, partial.top[i - 1].quality);
    }
  }
  // Entries the partial search did rank agree with the full search's
  // scores (same scorer, same candidates — expiry only truncates).
  EXPECT_EQ(partial.top.front().quality, full.top.front().quality);

  // Bounded overshoot: after the deadline, at most ~5 chunks of 256
  // candidates may still be scored (4 expired-slice chunks + 1 in-flight),
  // i.e. <= 1280 * 200us ~ 0.26s. Generous slack for CI noise, but far
  // below the >= 0.8s a full level 2 (~4000+ candidates) would cost.
  EXPECT_LT(elapsed, config.time_budget_seconds + 0.6);
}

TEST(TimeBudgetTest, ExpiredSearchCountsOnlyScoredCandidates) {
  const data::DataTable table = MakeWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config = WideConfig();
  config.time_budget_seconds = 0.03;
  const SearchResult partial = ReferenceBeamSearch(
      table, pool, config, CoverageQuality(std::chrono::microseconds(200)));
  ASSERT_TRUE(partial.hit_time_budget);
  // num_evaluated reflects work actually done: consistent with the elapsed
  // wall clock at ~200us each (never the full candidate universe).
  EXPECT_LE(partial.num_evaluated, 3000u);
}

/// Coverage quality that counts its calls and records when the last
/// level-1 and the first level-2 score ran (nanoseconds since creation).
/// The score is still a pure function of the candidate, so any worker
/// count may call it.
struct TimedCoverage {
  using Clock = std::chrono::steady_clock;

  const Clock::time_point origin = Clock::now();
  std::atomic<size_t> calls{0};
  std::atomic<int64_t> last_level1_ns{INT64_MIN};
  std::atomic<int64_t> first_level2_ns{INT64_MAX};

  reference::Quality Quality() {
    return [this](const pattern::Intention& intention,
                  const pattern::Extension& extension) {
      const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - origin)
                              .count();
      const bool level1 = intention.size() == 1;
      std::atomic<int64_t>& bound = level1 ? last_level1_ns : first_level2_ns;
      int64_t seen = bound.load();
      while ((level1 ? now > seen : now < seen) &&
             !bound.compare_exchange_weak(seen, now)) {
      }
      calls.fetch_add(1);
      return double(extension.count()) / double(1 + intention.size());
    };
  }
};

TEST(TimeBudgetTest, DeadlineDuringGenerationAtFourWorkersKeepsListValid) {
  // 20,000 rows x 24 columns: level 2 generates 100 parents x ~190 pool
  // conditions, each intersection count sweeping 313 words, so its
  // generation is a window of its own between the last level-1 score and
  // the first level-2 score.
  const data::DataTable table = MakeWideTable(20000, 24);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config = WideConfig();
  config.beam_width = 100;
  config.max_depth = 2;
  config.min_coverage = 1000;
  config.max_coverage_fraction = 0.65;

  TimedCoverage unbudgeted;
  const SearchResult full = ReferenceBeamSearch(
      table, pool, config, unbudgeted.Quality(), /*num_threads=*/4);
  ASSERT_FALSE(full.hit_time_budget);
  ASSERT_EQ(full.num_evaluated, unbudgeted.calls.load());
  const int64_t window_begin = unbudgeted.last_level1_ns.load();
  const int64_t window_end = unbudgeted.first_level2_ns.load();
  ASSERT_LT(window_begin, window_end);

  // Aim deadlines across the generation window (where each lands depends
  // on the machine), and check every outcome: a cut in generation keeps
  // only the parents generated in full, so no id set repeats.
  for (int step = 0; step < 8; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const int64_t at_ns =
        window_begin + (window_end - window_begin) * (2 * step + 1) / 16;
    config.time_budget_seconds = double(at_ns) * 1e-9;
    TimedCoverage timed;
    const SearchResult partial = ReferenceBeamSearch(
        table, pool, config, timed.Quality(), /*num_threads=*/4);
    EXPECT_LE(partial.num_evaluated, full.num_evaluated);
    EXPECT_EQ(partial.num_evaluated, timed.calls.load());
    std::set<std::string> signatures;
    for (size_t i = 0; i < partial.top.size(); ++i) {
      const ScoredSubgroup& entry = partial.top[i];
      EXPECT_TRUE(
          signatures.insert(entry.intention.CanonicalSignature()).second)
          << "rank " << i;
      EXPECT_TRUE(std::isfinite(entry.quality));
      EXPECT_EQ(entry.extension, entry.intention.Evaluate(table));
      if (i > 0) {
        EXPECT_LE(entry.quality, partial.top[i - 1].quality);
      }
    }
  }
}

}  // namespace
}  // namespace sisd::search
