#include "pattern/condition.hpp"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sisd::pattern {
namespace {

data::DataTable MakeTable() {
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("x", {1.0, 2.0, 3.0, 4.0})).CheckOK();
  table
      .AddColumn(data::Column::CategoricalFromStrings(
          "color", {"red", "blue", "red", "green"}))
      .CheckOK();
  table.AddColumn(data::Column::Binary("flag", {true, false, true, false}))
      .CheckOK();
  return table;
}

TEST(ConditionTest, LessEqualMatches) {
  const data::DataTable table = MakeTable();
  const Condition c = Condition::LessEqual(0, 2.0);
  EXPECT_TRUE(c.Matches(table, 0));
  EXPECT_TRUE(c.Matches(table, 1));
  EXPECT_FALSE(c.Matches(table, 2));
  const Extension ext = c.Evaluate(table);
  EXPECT_EQ(ext.count(), 2u);
}

TEST(ConditionTest, GreaterEqualMatches) {
  const data::DataTable table = MakeTable();
  const Condition c = Condition::GreaterEqual(0, 3.0);
  const Extension ext = c.Evaluate(table);
  EXPECT_EQ(ext.count(), 2u);
  EXPECT_TRUE(ext.Contains(2));
  EXPECT_TRUE(ext.Contains(3));
}

TEST(ConditionTest, EqualsMatchesCategoricalAndBinary) {
  const data::DataTable table = MakeTable();
  const Condition red = Condition::Equals(1, 0);
  EXPECT_EQ(red.Evaluate(table).count(), 2u);
  const Condition on = Condition::Equals(2, 1);
  EXPECT_EQ(on.Evaluate(table).count(), 2u);
  EXPECT_TRUE(on.Matches(table, 0));
  EXPECT_FALSE(on.Matches(table, 1));
}

/// A column of `values` stored in chunks cut at `cuts` (ascending row
/// indices), the way appended datasets store it.
template <typename T, typename Make, typename Append>
data::Column Chunked(const std::vector<T>& values,
                     const std::vector<size_t>& cuts, Make make,
                     Append append) {
  size_t begin = cuts.empty() ? values.size() : cuts.front();
  data::Column col = make(std::vector<T>(values.begin(),
                                         values.begin() + long(begin)));
  for (size_t k = 0; k < cuts.size(); ++k) {
    const size_t end = k + 1 < cuts.size() ? cuts[k + 1] : values.size();
    col = append(col, std::vector<T>(values.begin() + long(begin),
                                     values.begin() + long(end)));
    begin = end;
  }
  return col;
}

TEST(ConditionTest, EvaluateIntoMatchesPerRowReference) {
  std::mt19937_64 rng(64);
  const std::vector<std::string> labels = {"a", "b", "c", "d"};
  for (size_t n : {1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1000}) {
    std::vector<double> x(n);
    std::vector<int32_t> codes(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = double(rng() % 7) - 3.0;  // ties on purpose
      codes[i] = int32_t(i < labels.size() ? i : rng() % labels.size());
    }
    // Single chunk, chunks cut at block edges, and chunks cut mid-block
    // (a one-row chunk included).
    std::vector<std::vector<size_t>> cut_sets = {
        {}, {64, 128}, {n / 3, n / 3 + 1, (2 * n) / 3 + 1}};
    for (std::vector<size_t>& cuts : cut_sets) {
      for (size_t& cut : cuts) cut = std::min(cut, n);
      std::sort(cuts.begin(), cuts.end());
      data::DataTable table;
      table
          .AddColumn(Chunked(
              x, cuts,
              [](std::vector<double> v) {
                return data::Column::Numeric("x", std::move(v));
              },
              [](const data::Column& c, std::vector<double> tail) {
                return c.WithAppendedNumeric(std::move(tail));
              }))
          .CheckOK();
      table
          .AddColumn(Chunked(
              codes, cuts,
              [&](std::vector<int32_t> v) {
                return data::Column::Categorical("c", std::move(v), labels);
              },
              [](const data::Column& c, std::vector<int32_t> tail) {
                return c.WithAppendedCodes(std::move(tail));
              }))
          .CheckOK();
      std::vector<Condition> conditions;
      for (double t : {-3.5, -1.0, 0.0, 2.0, 3.0}) {
        conditions.push_back(Condition::LessEqual(0, t));
        conditions.push_back(Condition::GreaterEqual(0, t));
      }
      for (int32_t level = 0; level < int32_t(labels.size()); ++level) {
        conditions.push_back(Condition::Equals(1, level));
        conditions.push_back(Condition::NotEquals(1, level));
      }
      for (size_t from : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                          size_t{65}, n / 2, n - 1, n}) {
        if (from > n) continue;
        for (const Condition& c : conditions) {
          // Rows already present (below and above `from`) must stay.
          Extension want(n);
          for (size_t i = 0; i < n; ++i) {
            if (rng() % 5 == 0) want.Insert(i);
          }
          Extension got = want;
          for (size_t i = from; i < n; ++i) {
            if (c.Matches(table, i)) want.Insert(i);
          }
          c.EvaluateInto(table, from, &got);
          ASSERT_EQ(got, want) << c.Signature() << " n=" << n
                               << " from=" << from
                               << " chunks=" << cuts.size() + 1;
          ASSERT_EQ(got.count(), want.count());
        }
      }
    }
  }
}

TEST(ConditionTest, ToStringRendering) {
  const data::DataTable table = MakeTable();
  EXPECT_EQ(Condition::LessEqual(0, 2.5).ToString(table), "x <= 2.5");
  EXPECT_EQ(Condition::GreaterEqual(0, 0.39).ToString(table), "x >= 0.39");
  EXPECT_EQ(Condition::Equals(1, 2).ToString(table), "color = 'green'");
  EXPECT_EQ(Condition::Equals(2, 1).ToString(table), "flag = '1'");
}

TEST(ConditionTest, SignatureDistinguishesConditions) {
  EXPECT_NE(Condition::LessEqual(0, 1.0).Signature(),
            Condition::GreaterEqual(0, 1.0).Signature());
  EXPECT_NE(Condition::LessEqual(0, 1.0).Signature(),
            Condition::LessEqual(1, 1.0).Signature());
  EXPECT_NE(Condition::LessEqual(0, 1.0).Signature(),
            Condition::LessEqual(0, 2.0).Signature());
  EXPECT_EQ(Condition::Equals(1, 2).Signature(),
            Condition::Equals(1, 2).Signature());
}

TEST(ConditionTest, EqualityOperator) {
  EXPECT_EQ(Condition::LessEqual(0, 1.0), Condition::LessEqual(0, 1.0));
  EXPECT_FALSE(Condition::LessEqual(0, 1.0) == Condition::LessEqual(0, 2.0));
  EXPECT_FALSE(Condition::Equals(0, 1) == Condition::Equals(0, 2));
}

TEST(IntentionTest, EmptyMatchesAllRows) {
  const data::DataTable table = MakeTable();
  const Intention empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Evaluate(table).count(), 4u);
  EXPECT_EQ(empty.ToString(table), "<all rows>");
}

TEST(IntentionTest, ConjunctionIntersects) {
  const data::DataTable table = MakeTable();
  const Intention both({Condition::LessEqual(0, 3.0),
                        Condition::Equals(1, 0)});
  // x <= 3 matches rows 0-2; color = red matches rows 0, 2.
  const Extension ext = both.Evaluate(table);
  EXPECT_EQ(ext.count(), 2u);
  EXPECT_TRUE(ext.Contains(0));
  EXPECT_TRUE(ext.Contains(2));
}

TEST(IntentionTest, ExtendedAddsCondition) {
  const Intention one({Condition::LessEqual(0, 3.0)});
  const Intention two = one.Extended(Condition::Equals(2, 1));
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
}

TEST(IntentionTest, ConstraintChecks) {
  const Intention intent({Condition::LessEqual(0, 3.0),
                          Condition::Equals(1, 0)});
  EXPECT_TRUE(intent.ConstrainsAttribute(0));
  EXPECT_TRUE(intent.ConstrainsAttribute(1));
  EXPECT_FALSE(intent.ConstrainsAttribute(2));
  EXPECT_TRUE(
      intent.ConstrainsAttributeOp(0, ConditionOp::kLessEqual));
  EXPECT_FALSE(
      intent.ConstrainsAttributeOp(0, ConditionOp::kGreaterEqual));
}

TEST(IntentionTest, ToStringJoinsWithAnd) {
  const data::DataTable table = MakeTable();
  const Intention intent({Condition::GreaterEqual(0, 2.0),
                          Condition::Equals(2, 0)});
  EXPECT_EQ(intent.ToString(table), "x >= 2 AND flag = '0'");
}

TEST(ConditionTest, NotEqualsMatchesComplement) {
  const data::DataTable table = MakeTable();
  const Condition not_red = Condition::NotEquals(1, 0);
  const Extension ext = not_red.Evaluate(table);
  EXPECT_EQ(ext.count(), 2u);  // rows 1 (blue) and 3 (green)
  EXPECT_TRUE(ext.Contains(1));
  EXPECT_TRUE(ext.Contains(3));
  EXPECT_EQ(not_red.ToString(table), "color != 'red'");
  EXPECT_NE(not_red.Signature(), Condition::Equals(1, 0).Signature());
}

TEST(IntentionTest, RefinementRulesForExclusions) {
  // Two distinct exclusions on one attribute = set exclusion: allowed.
  const Intention one_exclusion({Condition::NotEquals(1, 0)});
  EXPECT_TRUE(one_exclusion.AllowsRefinementWith(Condition::NotEquals(1, 1)));
  // Duplicate exclusion: rejected.
  EXPECT_FALSE(one_exclusion.AllowsRefinementWith(Condition::NotEquals(1, 0)));
  // Equality on an attribute that already has an exclusion: rejected.
  EXPECT_FALSE(one_exclusion.AllowsRefinementWith(Condition::Equals(1, 2)));
  // Exclusion on an attribute pinned by an equality: rejected.
  const Intention pinned({Condition::Equals(1, 2)});
  EXPECT_FALSE(pinned.AllowsRefinementWith(Condition::NotEquals(1, 0)));
  // Interval ops: one <= and one >= per attribute.
  const Intention interval({Condition::LessEqual(0, 3.0)});
  EXPECT_FALSE(interval.AllowsRefinementWith(Condition::LessEqual(0, 2.0)));
  EXPECT_TRUE(interval.AllowsRefinementWith(Condition::GreaterEqual(0, 1.0)));
}

TEST(IntentionTest, SetExclusionConjunctionEvaluates) {
  const data::DataTable table = MakeTable();
  // color != red AND color != blue  ==  color == green.
  const Intention excl({Condition::NotEquals(1, 0),
                        Condition::NotEquals(1, 1)});
  const Extension ext = excl.Evaluate(table);
  EXPECT_EQ(ext.count(), 1u);
  EXPECT_TRUE(ext.Contains(3));
}

TEST(IntentionTest, CanonicalSignatureIsOrderIndependent) {
  const Condition a = Condition::LessEqual(0, 3.0);
  const Condition b = Condition::Equals(1, 0);
  EXPECT_EQ(Intention({a, b}).CanonicalSignature(),
            Intention({b, a}).CanonicalSignature());
  EXPECT_NE(Intention({a}).CanonicalSignature(),
            Intention({a, b}).CanonicalSignature());
}

}  // namespace
}  // namespace sisd::pattern
