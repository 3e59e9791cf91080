#include "search/condition_pool.hpp"

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "datagen/scenarios.hpp"
#include "search/thread_pool.hpp"

namespace sisd::search {
namespace {

data::DataTable MakeTable() {
  std::vector<double> numeric;
  for (int i = 1; i <= 100; ++i) numeric.push_back(double(i));
  std::vector<bool> flags;
  for (int i = 0; i < 100; ++i) flags.push_back(i % 2 == 0);
  std::vector<std::string> cats;
  for (int i = 0; i < 100; ++i) {
    cats.push_back(i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c"));
  }
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("x", numeric)).CheckOK();
  table.AddColumn(data::Column::Binary("flag", flags)).CheckOK();
  table.AddColumn(data::Column::CategoricalFromStrings("cat", cats))
      .CheckOK();
  return table;
}

TEST(ConditionPoolTest, BuildsExpectedConditionCount) {
  const data::DataTable table = MakeTable();
  // Default (the paper's Cortana alphabet): numeric 4 splits x 2 ops = 8;
  // binary: 2 equality levels; categorical with 3 levels: 3 equalities.
  const ConditionPool cortana = ConditionPool::Build(table, 4);
  EXPECT_EQ(cortana.size(), 13u);
  // Opting in to set exclusions adds one != per categorical level.
  const ConditionPool extended =
      ConditionPool::Build(table, 4, /*include_exclusions=*/true);
  EXPECT_EQ(extended.size(), 16u);
}

TEST(ConditionPoolTest, DefaultAlphabetHasNoExclusions) {
  const data::DataTable table = MakeTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_NE(pool.condition(i).op, pattern::ConditionOp::kNotEquals)
        << pool.condition(i).Signature();
  }
}

TEST(ConditionPoolTest, ExclusionsOnlyForThreePlusLevels) {
  const data::DataTable table = MakeTable();
  const ConditionPool pool =
      ConditionPool::Build(table, 4, /*include_exclusions=*/true);
  size_t binary_exclusions = 0;
  size_t categorical_exclusions = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool.condition(i).op != pattern::ConditionOp::kNotEquals) continue;
    if (pool.condition(i).attribute == 1) ++binary_exclusions;
    if (pool.condition(i).attribute == 2) ++categorical_exclusions;
  }
  EXPECT_EQ(binary_exclusions, 0u);       // != is redundant for binary
  EXPECT_EQ(categorical_exclusions, 3u);  // one per level
}

TEST(ConditionPoolTest, ExtensionsPrecomputedCorrectly) {
  const data::DataTable table = MakeTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.extension(i), pool.condition(i).Evaluate(table))
        << "condition " << i;
    EXPECT_GT(pool.extension(i).count(), 0u);
    EXPECT_LT(pool.extension(i).count(), table.num_rows());
  }
}

TEST(ConditionPoolTest, NumericSplitsAreQuintiles) {
  const data::DataTable table = MakeTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  // First numeric condition: x <= ~20.8 covering ~20% of rows.
  const pattern::Condition& c = pool.condition(0);
  EXPECT_EQ(c.op, pattern::ConditionOp::kLessEqual);
  EXPECT_NEAR(c.threshold, 20.8, 1e-9);
  EXPECT_EQ(pool.extension(0).count(), 20u);
}

TEST(ConditionPoolTest, ConstantColumnsContributeNothing) {
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("const", {5.0, 5.0, 5.0})).CheckOK();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  // All conditions on a constant column match every row -> excluded.
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ConditionPoolTest, OrdinalColumnsGetIntervalConditions) {
  data::DataTable table;
  std::vector<double> levels;
  for (int i = 0; i < 40; ++i) {
    levels.push_back(i % 4 == 0 ? 0.0 : (i % 4 == 1 ? 1.0 : (i % 4 == 2 ? 3.0 : 5.0)));
  }
  table.AddColumn(data::Column::Ordinal("density", levels)).CheckOK();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  EXPECT_GT(pool.size(), 0u);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_NE(pool.condition(i).op, pattern::ConditionOp::kEquals);
  }
}

TEST(ConditionPoolTest, DedupsBitIdenticalExtensions) {
  // A low-cardinality numeric column: many quantile split points land
  // between the same pair of observed values, so several thresholds select
  // exactly the same rows. Only the first survives.
  data::DataTable table;
  std::vector<double> skewed;
  for (int i = 0; i < 60; ++i) {
    skewed.push_back(i < 50 ? 0.0 : (i < 55 ? 1.0 : 7.5));
  }
  table.AddColumn(data::Column::Numeric("skewed", skewed)).CheckOK();
  const ConditionPool pool = ConditionPool::Build(table, 8);
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = i + 1; j < pool.size(); ++j) {
      EXPECT_FALSE(pool.extension(i) == pool.extension(j))
          << pool.condition(i).Signature() << " duplicates "
          << pool.condition(j).Signature();
    }
  }
  // Far fewer conditions than the 16 generated (8 splits x 2 ops): only
  // distinct row subsets survive. With values {0, 1, 7.5} there are at
  // most 4 non-vacuous threshold extensions (<=0, <=1, >=1, >=7.5).
  EXPECT_LE(pool.size(), 4u);
  EXPECT_GE(pool.size(), 2u);
}

TEST(ConditionPoolTest, DedupKeepsFirstCondition) {
  // Two identical numeric columns: the second contributes nothing new.
  data::DataTable table;
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) values.push_back(double(i % 5));
  table.AddColumn(data::Column::Numeric("first", values)).CheckOK();
  table.AddColumn(data::Column::Numeric("clone", values)).CheckOK();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.condition(i).attribute, 0u)
        << "duplicate from the clone column survived: "
        << pool.condition(i).Signature();
  }
}

TEST(ConditionPoolTest, FewerSplitsFewerConditions) {
  const data::DataTable table = MakeTable();
  const ConditionPool small = ConditionPool::Build(table, 1);
  const ConditionPool large = ConditionPool::Build(table, 8);
  EXPECT_LT(small.size(), large.size());
}

TEST(ConditionPoolTest, EveryScenarioPoolIsIndependentOfWorkerCount) {
  // Phase 1 runs one column per chunk on the workers; phase 2 filters in
  // column order, so the pool is the same sequence, bit for bit, on any
  // worker count (thresholds compared by their bits).
  ThreadPool one(1), two(2), four(4);
  for (const std::string& name : datagen::ScenarioNames()) {
    const data::Dataset dataset = datagen::MakeScenarioDataset(name).Value();
    for (const int splits : {1, 4, 8}) {
      for (const bool exclusions : {false, true}) {
        const ConditionPool serial =
            ConditionPool::Build(dataset.descriptions, splits, exclusions);
        for (ThreadPool* workers : {&one, &two, &four}) {
          SCOPED_TRACE(name + " splits=" + std::to_string(splits) +
                       " exclusions=" + std::to_string(exclusions) +
                       " workers=" + std::to_string(workers->num_workers()));
          const ConditionPool parallel = ConditionPool::Build(
              dataset.descriptions, splits, exclusions, workers);
          ASSERT_EQ(serial.size(), parallel.size());
          for (size_t i = 0; i < serial.size(); ++i) {
            const pattern::Condition& a = serial.condition(i);
            const pattern::Condition& b = parallel.condition(i);
            EXPECT_EQ(a.attribute, b.attribute) << i;
            EXPECT_EQ(a.op, b.op) << i;
            EXPECT_EQ(a.level, b.level) << i;
            EXPECT_EQ(std::bit_cast<uint64_t>(a.threshold),
                      std::bit_cast<uint64_t>(b.threshold))
                << i;
            EXPECT_EQ(serial.extension(i), parallel.extension(i)) << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sisd::search
