#include "core/export.hpp"

#include <cstdio>

#include <gtest/gtest.h>

#include "data/csv.hpp"
#include "datagen/synthetic.hpp"

namespace sisd::core {
namespace {

MinerConfig FastConfig() {
  MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  config.spread_optimizer.num_random_starts = 1;
  return config;
}

TEST(ExportTest, IterationSummaryTableHasOneRowPerIteration) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  const data::Dataset& dataset = session.Value().dataset();
  ASSERT_TRUE(session.Value().MineIterations(3).ok());

  const data::DataTable table = IterationSummaryTable(
      session.Value().history(), dataset.descriptions, dataset.target_names);
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_TRUE(table.HasColumn("intention"));
  EXPECT_TRUE(table.HasColumn("location_si"));
  EXPECT_TRUE(table.HasColumn("spread_direction"));
  // SI column is the mined SI in iteration order.
  const data::Column* si_col =
      table.ColumnByName("location_si").ValueOrDie();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(
        si_col->NumericValue(i),
        session.Value().history()[i].location.score.si);
  }
  // Spread direction rendered with target names.
  const data::Column* dir_col =
      table.ColumnByName("spread_direction").ValueOrDie();
  EXPECT_NE(dir_col->ValueToString(0).find("Attribute"), std::string::npos);
}

TEST(ExportTest, RankedListTableMatchesRankedResults) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  const data::Dataset& dataset = session.Value().dataset();
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok());

  const data::DataTable table =
      RankedListTable(iteration.Value(), dataset.descriptions);
  EXPECT_EQ(table.num_rows(), iteration.Value().ranked.size());
  const data::Column* si_col = table.ColumnByName("si").ValueOrDie();
  for (size_t r = 1; r < table.num_rows(); ++r) {
    EXPECT_GE(si_col->NumericValue(r - 1), si_col->NumericValue(r));
  }
}

TEST(ExportTest, HistoryCsvRoundTrips) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.Value().MineIterations(2).ok());

  const std::string path = ::testing::TempDir() + "/sisd_history.csv";
  ASSERT_TRUE(ExportHistoryCsv(session.Value(), path).ok());
  Result<data::DataTable> parsed = data::ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.Value().num_rows(), 2u);
  EXPECT_TRUE(parsed.Value().HasColumn("location_si"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sisd::core
