// ConditionPool::BuildIncremental differential contract: for a row-append
// version of a table, deriving the child pool from the parent's must be
// *bit-identical* to building from scratch — same conditions in the same
// order, same extension bitsets — whichever split thresholds the append
// moves. The stats split (reused vs rebuilt) is checked in the regimes
// where each path must dominate. Every build is also independent of the
// worker count it runs on, including while a beam search shares the pool.

#include "search/condition_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "data/append.hpp"
#include "data/table.hpp"
#include "datagen/scenarios.hpp"
#include "model/background_model.hpp"
#include "search/beam_search.hpp"
#include "search/si_evaluator.hpp"
#include "search/thread_pool.hpp"

namespace sisd::search {
namespace {

/// Asserts the two pools are bit-identical (the differential oracle).
void ExpectPoolsIdentical(const ConditionPool& scratch,
                          const ConditionPool& incremental,
                          const data::DataTable& table) {
  ASSERT_EQ(scratch.size(), incremental.size());
  for (size_t i = 0; i < scratch.size(); ++i) {
    EXPECT_TRUE(scratch.condition(i) == incremental.condition(i))
        << "condition " << i << ": "
        << scratch.condition(i).ToString(table) << " vs "
        << incremental.condition(i).ToString(table);
    EXPECT_TRUE(scratch.extension(i) == incremental.extension(i))
        << "extension of " << scratch.condition(i).ToString(table);
  }
}

// Numeric column with a 2-8-2 value structure: QuantileSplitPoints
// interpolates at p*(n-1), so a split only survives a size change when
// the interpolation index lands strictly inside a run of equal values at
// BOTH sizes. With 4 splits (p = 0.2..0.8) the index ranges over
// [2.2, 8.8] at n=12 and [4.6, 18.4] at n=24 — inside the middle run of
// eight 7s (sixteen after doubling) either way.
constexpr double kX[12] = {5, 7, 9, 7, 5, 7, 9, 7, 7, 7, 7, 7};

data::Dataset MixedParent() {
  data::DataTable desc;
  EXPECT_TRUE(desc.AddColumn(data::Column::Numeric(
      "x", {kX[0], kX[1], kX[2], kX[3], kX[4], kX[5], kX[6], kX[7], kX[8],
            kX[9], kX[10], kX[11]})).ok());
  EXPECT_TRUE(desc.AddColumn(data::Column::Ordinal(
      "o", {0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2})).ok());
  EXPECT_TRUE(desc.AddColumn(data::Column::CategoricalFromStrings(
      "c", {"a", "b", "c", "a", "b", "c", "a", "b", "c", "a", "b", "c"}))
                  .ok());
  EXPECT_TRUE(desc.AddColumn(data::Column::Binary(
      "b", {false, true, false, true, false, true, false, true, false,
            true, false, true})).ok());
  data::Dataset dataset;
  dataset.descriptions = std::move(desc);
  dataset.targets = linalg::Matrix(12, 1, 0.0);
  for (size_t i = 0; i < 12; ++i) dataset.targets(i, 0) = double(i) * 0.1;
  dataset.target_names = {"t"};
  dataset.name = "mixed";
  EXPECT_TRUE(dataset.Validate().ok());
  return dataset;
}

data::Dataset Grow(const data::Dataset& parent,
                   const std::vector<std::vector<data::AppendCell>>& rows) {
  Result<data::Dataset> child = data::AppendRowsFromCells(
      parent, {"x", "o", "c", "b", "t"}, rows);
  EXPECT_TRUE(child.ok()) << child.status().ToString();
  return std::move(child).MoveValue();
}

std::vector<data::AppendCell> Row(double x, double o, const std::string& c,
                                  const std::string& b, double t) {
  return {data::AppendCell::Number(x), data::AppendCell::Number(o),
          data::AppendCell::Text(c), data::AppendCell::Text(b),
          data::AppendCell::Number(t)};
}

/// Appends rows [from, from + take) of `source` (same schema as
/// `current`) through the cell-append entry point, which coerces every
/// column kind uniformly.
data::Dataset AppendSourceRows(const data::Dataset& current,
                               const data::Dataset& source, size_t from,
                               size_t take) {
  std::vector<std::string> columns;
  for (size_t j = 0; j < source.num_descriptions(); ++j) {
    columns.push_back(source.descriptions.column(j).name());
  }
  for (const std::string& target : source.target_names) {
    columns.push_back(target);
  }
  std::vector<std::vector<data::AppendCell>> rows;
  for (size_t i = from; i < from + take; ++i) {
    std::vector<data::AppendCell> row;
    for (size_t j = 0; j < source.num_descriptions(); ++j) {
      const data::Column& column = source.descriptions.column(j);
      if (IsOrderable(column.kind())) {
        row.push_back(data::AppendCell::Number(column.NumericValue(i)));
      } else {
        row.push_back(data::AppendCell::Text(column.Label(column.Code(i))));
      }
    }
    for (size_t t = 0; t < source.num_targets(); ++t) {
      row.push_back(data::AppendCell::Number(source.targets(i, t)));
    }
    rows.push_back(std::move(row));
  }
  Result<data::Dataset> grown =
      data::AppendRowsFromCells(current, columns, rows);
  EXPECT_TRUE(grown.ok()) << grown.status().ToString();
  return std::move(grown).MoveValue();
}

TEST(BuildIncrementalTest, QuantilePreservingAppendReusesEverything) {
  const data::Dataset parent = MixedParent();
  // Appending an exact copy of the parent rows doubles every column's
  // value counts; with every interpolated quantile position inside a
  // constant run at both sizes (see kX), no split moves and all
  // orderable conditions extend in place.
  std::vector<std::vector<data::AppendCell>> copy;
  const char* labels[3] = {"a", "b", "c"};
  for (size_t i = 0; i < 12; ++i) {
    copy.push_back(Row(kX[i], double((i / 2) % 3), labels[i % 3],
                       i % 2 == 1 ? "1" : "0", double(i) * 0.1));
  }
  const data::Dataset child = Grow(parent, copy);
  for (const bool exclusions : {false, true}) {
    const ConditionPool parent_pool =
        ConditionPool::Build(parent.descriptions, 4, exclusions);
    IncrementalPoolStats stats;
    const ConditionPool incremental = ConditionPool::BuildIncremental(
        child.descriptions, parent_pool, parent.num_rows(), 4, exclusions,
        &stats);
    const ConditionPool scratch =
        ConditionPool::Build(child.descriptions, 4, exclusions);
    ExpectPoolsIdentical(scratch, incremental, child.descriptions);
    // Every condition the parent pool kept extends in place; `rebuilt`
    // only counts candidates the parent filtered (vacuous or
    // duplicate-extension), which never had a bitset to extend.
    EXPECT_EQ(stats.reused, parent_pool.size())
        << "no threshold moved, every parent condition must extend";
  }
}

TEST(BuildIncrementalTest, MovedThresholdsRebuildAndStayIdentical) {
  const data::Dataset parent = MixedParent();
  // Extreme new values shift the numeric quantiles: those conditions must
  // rebuild, and the result must still equal a scratch build.
  const data::Dataset child = Grow(
      parent, {Row(100, 5, "a", "0", 2.0), Row(200, 6, "b", "1", 2.1),
               Row(300, 7, "c", "0", 2.2), Row(-50, -3, "a", "1", 2.3)});
  const ConditionPool parent_pool =
      ConditionPool::Build(parent.descriptions, 4, false);
  IncrementalPoolStats stats;
  const ConditionPool incremental = ConditionPool::BuildIncremental(
      child.descriptions, parent_pool, parent.num_rows(), 4, false, &stats);
  const ConditionPool scratch = ConditionPool::Build(child.descriptions, 4,
                                                     false);
  ExpectPoolsIdentical(scratch, incremental, child.descriptions);
  EXPECT_GT(stats.rebuilt, 0u) << "moved quantiles must rebuild";
  // Categorical/binary equality conditions never move.
  EXPECT_GT(stats.reused, 0u);
}

TEST(BuildIncrementalTest, NewCategoricalLevelAppearsInChildPool) {
  const data::Dataset parent = MixedParent();
  const data::Dataset child =
      Grow(parent, {Row(2, 1, "fresh-level", "1", 2.0)});
  const ConditionPool parent_pool =
      ConditionPool::Build(parent.descriptions, 4, false);
  const ConditionPool incremental = ConditionPool::BuildIncremental(
      child.descriptions, parent_pool, parent.num_rows(), 4, false);
  const ConditionPool scratch =
      ConditionPool::Build(child.descriptions, 4, false);
  ExpectPoolsIdentical(scratch, incremental, child.descriptions);
  bool found = false;
  for (size_t i = 0; i < incremental.size(); ++i) {
    if (incremental.condition(i).ToString(child.descriptions)
            .find("fresh-level") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "the new level's equality condition must exist";
}

TEST(BuildIncrementalTest, SyntheticScenarioStackedAppendsStayIdentical) {
  // The realistic shape: the synthetic scenario grown in three uneven
  // steps, pools derived chain-wise (each child from the previous child),
  // against scratch builds at every step and both split counts.
  data::Dataset current =
      datagen::MakeScenarioDataset("synthetic").Value();
  const data::Dataset tail = datagen::MakeScenarioDataset("synthetic").Value();
  for (const size_t take : {size_t{1}, size_t{7}, size_t{23}}) {
    data::Dataset grown = AppendSourceRows(current, tail, 0, take);
    for (const int splits : {2, 4}) {
      const ConditionPool parent_pool =
          ConditionPool::Build(current.descriptions, splits, false);
      IncrementalPoolStats stats;
      const ConditionPool incremental = ConditionPool::BuildIncremental(
          grown.descriptions, parent_pool, current.num_rows(), splits, false,
          &stats);
      const ConditionPool scratch =
          ConditionPool::Build(grown.descriptions, splits, false);
      ExpectPoolsIdentical(scratch, incremental, grown.descriptions);
      EXPECT_EQ(stats.reused + stats.rebuilt, incremental.size());
    }
    current = std::move(grown);
  }
}

/// Asserts two pools are the same sequence bit for bit: conditions
/// (thresholds compared by their bits, so -0.0 vs +0.0 fails) and
/// extension blocks.
void ExpectSameBits(const ConditionPool& a, const ConditionPool& b,
                    const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    const pattern::Condition& ca = a.condition(i);
    const pattern::Condition& cb = b.condition(i);
    EXPECT_EQ(ca.attribute, cb.attribute) << where << " #" << i;
    EXPECT_EQ(ca.op, cb.op) << where << " #" << i;
    EXPECT_EQ(ca.level, cb.level) << where << " #" << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(ca.threshold),
              std::bit_cast<uint64_t>(cb.threshold))
        << where << " #" << i;
    EXPECT_EQ(a.extension(i).universe_size(), b.extension(i).universe_size())
        << where << " #" << i;
    EXPECT_EQ(a.extension(i).blocks(), b.extension(i).blocks())
        << where << " #" << i;
  }
}

/// A chain of three appends (`takes` rows of `source` each, starting at
/// `source` row 0) on top of `root`: each step's child pool derived from
/// the previous step's pool, built serially and on every worker count.
void ExpectChainIndependentOfWorkers(const data::Dataset& root,
                                     const data::Dataset& source,
                                     const std::vector<size_t>& takes,
                                     const std::string& name) {
  ThreadPool one(1), two(2), four(4);
  data::Dataset current = root;
  size_t offset = 0;
  for (const size_t take : takes) {
    const size_t rows = std::min(take, source.num_rows() - offset);
    const data::Dataset grown =
        AppendSourceRows(current, source, offset, rows);
    offset += rows;
    const ConditionPool parent_pool =
        ConditionPool::Build(current.descriptions, 4, false);
    IncrementalPoolStats serial_stats;
    const ConditionPool serial = ConditionPool::BuildIncremental(
        grown.descriptions, parent_pool, current.num_rows(), 4, false,
        &serial_stats);
    for (ThreadPool* workers : {&one, &two, &four}) {
      const std::string where = name + " +" + std::to_string(rows) +
                                " rows, " +
                                std::to_string(workers->num_workers()) +
                                " workers";
      IncrementalPoolStats stats;
      const ConditionPool parallel = ConditionPool::BuildIncremental(
          grown.descriptions, parent_pool, current.num_rows(), 4, false,
          &stats, workers);
      ExpectSameBits(serial, parallel, where);
      EXPECT_EQ(stats.reused, serial_stats.reused) << where;
      EXPECT_EQ(stats.rebuilt, serial_stats.rebuilt) << where;
      ExpectSameBits(
          ConditionPool::Build(grown.descriptions, 4, false, workers),
          parallel, where + " (scratch)");
    }
    current = grown;
  }
}

TEST(BuildIncrementalTest, EveryScenarioChainIsIndependentOfWorkerCount) {
  for (const std::string& name : datagen::ScenarioNames()) {
    SCOPED_TRACE(name);
    const data::Dataset scenario = datagen::MakeScenarioDataset(name).Value();
    ExpectChainIndependentOfWorkers(scenario, scenario, {1, 17, 60}, name);
  }
}

TEST(BuildIncrementalTest, MixedTableChainIsIndependentOfWorkerCount) {
  // The mixed numeric/ordinal/categorical/binary table, fed its own rows
  // and then rows that move quantiles, add a categorical level and put
  // both zero signs in `x` (the split points' full-sort path).
  const data::Dataset parent = MixedParent();
  const data::Dataset source = Grow(
      parent, {Row(100, 5, "a", "0", 2.0), Row(-0.0, 6, "new", "1", 2.1),
               Row(0.0, 7, "c", "0", 2.2), Row(-50, -3, "a", "1", 2.3)});
  ExpectChainIndependentOfWorkers(parent, source, {1, 5, 10}, "mixed");
}

TEST(BuildIncrementalTest, RefreshSharesAThreadPoolWithARunningBeamSearch) {
  // The serve layer refreshes pools on the same pool its sessions mine
  // on: jobs from both must serialize cleanly (no deadlock, no race) and
  // leave both results exactly as their serial runs.
  const data::Dataset crime = datagen::MakeScenarioDataset("crime").Value();
  const data::Dataset grown = AppendSourceRows(crime, crime, 0, 40);
  const ConditionPool parent_pool =
      ConditionPool::Build(crime.descriptions, 4, false);
  const ConditionPool serial_refresh = ConditionPool::BuildIncremental(
      grown.descriptions, parent_pool, crime.num_rows(), 4, false);

  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(crime.targets);
  ASSERT_TRUE(model.ok());
  SearchConfig config;
  config.max_depth = 2;
  config.beam_width = 8;
  config.min_coverage = 20;
  const si::DescriptionLengthParams dl;
  SiLocationEvaluator serial_evaluator(model.Value(), crime.targets, dl);
  config.num_threads = 1;
  const SearchResult serial_search =
      BeamSearch(crime.descriptions, parent_pool, config, serial_evaluator);

  ThreadPool shared(4);
  std::vector<SearchResult> searches;
  std::thread miner([&] {
    for (int round = 0; round < 3; ++round) {
      SiLocationEvaluator evaluator(model.Value(), crime.targets, dl);
      searches.push_back(BeamSearch(crime.descriptions, parent_pool, config,
                                    evaluator, &shared));
    }
  });
  std::vector<ConditionPool> refreshes;
  for (int round = 0; round < 3; ++round) {
    refreshes.push_back(ConditionPool::BuildIncremental(
        grown.descriptions, parent_pool, crime.num_rows(), 4, false,
        nullptr, &shared));
  }
  miner.join();

  for (const ConditionPool& refresh : refreshes) {
    ExpectSameBits(serial_refresh, refresh, "refresh");
  }
  ASSERT_EQ(searches.size(), 3u);
  for (const SearchResult& search : searches) {
    EXPECT_EQ(search.num_evaluated, serial_search.num_evaluated);
    ASSERT_EQ(search.top.size(), serial_search.top.size());
    for (size_t i = 0; i < search.top.size(); ++i) {
      EXPECT_EQ(search.top[i].quality, serial_search.top[i].quality);
      EXPECT_EQ(search.top[i].extension, serial_search.top[i].extension);
    }
  }
}

}  // namespace
}  // namespace sisd::search
