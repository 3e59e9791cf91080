#include "baseline/quality_measures.hpp"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "../search/reference_search.hpp"
#include "random/rng.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"

namespace sisd::baseline {
namespace {

using linalg::Matrix;
using pattern::Extension;

Matrix MakeTargets() {
  // 8 rows; rows 0-3 have elevated values.
  Matrix y(8, 1);
  const double values[8] = {5.0, 6.0, 5.5, 5.5, 1.0, 2.0, 1.5, 1.5};
  for (size_t i = 0; i < 8; ++i) y(i, 0) = values[i];
  return y;
}

TEST(TargetSummaryTest, ComputesMoments) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  EXPECT_DOUBLE_EQ(summary.mean, 3.5);
  EXPECT_EQ(summary.n, 8u);
  EXPECT_GT(summary.stddev, 0.0);
  EXPECT_DOUBLE_EQ(summary.median, 3.5);
}

TEST(ZScoreQualityTest, ElevatedSubgroupScoresHigh) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension hot = Extension::FromRows(8, {0, 1, 2, 3});
  const Extension random = Extension::FromRows(8, {0, 4, 1, 5});
  EXPECT_GT(ZScoreQuality(y, 0, summary, hot),
            ZScoreQuality(y, 0, summary, random));
  // Mean of the mixed subgroup equals the global mean: z = 0.
  EXPECT_NEAR(ZScoreQuality(y, 0, summary, random), 0.0, 1e-12);
}

TEST(ZScoreQualityTest, ScalesWithSqrtSize) {
  Matrix y(100, 1);
  for (size_t i = 0; i < 100; ++i) y(i, 0) = (i < 50) ? 1.0 : -1.0;
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension small = Extension::FromRows(100, {0, 1});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 8; ++i) rows.push_back(i);
  const Extension big = Extension::FromRows(100, rows);
  EXPECT_NEAR(ZScoreQuality(y, 0, summary, big),
              2.0 * ZScoreQuality(y, 0, summary, small), 1e-9);
}

TEST(WraccQualityTest, SignReflectsDirection) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension hot = Extension::FromRows(8, {0, 1});
  const Extension cold = Extension::FromRows(8, {4, 5});
  EXPECT_GT(WraccQuality(y, 0, summary, hot), 0.0);
  EXPECT_LT(WraccQuality(y, 0, summary, cold), 0.0);
  // Coverage factor: (2/8) * (5.5 - 3.5) = 0.5.
  EXPECT_NEAR(WraccQuality(y, 0, summary, hot), 0.5, 1e-12);
}

TEST(DispersionCorrectedQualityTest, PenalizesSpreadOutSubgroups) {
  Matrix y(10, 1);
  // Tight displaced subgroup rows 0-2; loose displaced subgroup rows 3-5.
  const double values[10] = {5.0, 5.0, 5.0, 3.0, 5.0, 9.0,
                             0.0, 0.1, -0.1, 0.0};
  for (size_t i = 0; i < 10; ++i) y(i, 0) = values[i];
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension tight = Extension::FromRows(10, {0, 1, 2});
  const Extension loose = Extension::FromRows(10, {3, 4, 5});
  EXPECT_GT(DispersionCorrectedQuality(y, 0, summary, tight),
            DispersionCorrectedQuality(y, 0, summary, loose));
}

TEST(DispersionCorrectedFamilyTest, DefaultsMatchLegacyMeasureExactly) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  for (const Extension& ext :
       {Extension::FromRows(8, {0, 1, 2, 3}), Extension::FromRows(8, {4, 5}),
        Extension::FromRows(8, {0, 4, 1, 5})}) {
    EXPECT_EQ(DispersionCorrectedFamilyQuality(y, 0, summary, ext,
                                               DispersionCorrectedParams{}),
              DispersionCorrectedQuality(y, 0, summary, ext));
  }
}

TEST(DispersionCorrectedFamilyTest, OneSidedIgnoresDownwardShifts) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension cold = Extension::FromRows(8, {4, 5, 6, 7});
  DispersionCorrectedParams one_sided;
  one_sided.two_sided = false;
  // The cold subgroup's median sits below the global median: one-sided
  // quality clamps to zero while the two-sided default rewards it.
  EXPECT_EQ(DispersionCorrectedFamilyQuality(y, 0, summary, cold, one_sided),
            0.0);
  EXPECT_GT(DispersionCorrectedQuality(y, 0, summary, cold), 0.0);
}

TEST(DispersionCorrectedFamilyTest, SizeExponentControlsCoverageReward) {
  Matrix y(100, 1);
  for (size_t i = 0; i < 100; ++i) y(i, 0) = (i < 10) ? 5.0 : 0.0;
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension small = Extension::FromRows(100, {0, 1});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 8; ++i) rows.push_back(i);
  const Extension big = Extension::FromRows(100, rows);

  // Both subgroups are constant-valued (zero dispersion, same shift), so
  // quality ratios reduce to the pure size term m^a.
  for (const double a : {0.0, 0.5, 1.0}) {
    DispersionCorrectedParams params;
    params.size_exponent = a;
    const double q_small =
        DispersionCorrectedFamilyQuality(y, 0, summary, small, params);
    const double q_big =
        DispersionCorrectedFamilyQuality(y, 0, summary, big, params);
    EXPECT_NEAR(q_big / q_small, std::pow(4.0, a), 1e-9);
  }
}

TEST(MeasureEvaluatorTest, ScoresShiftsInBothDirections) {
  // One binary attribute splits the rows into the elevated half (rows 0-3)
  // and the depressed half. Every measure is scored two-sided, so both
  // halves score positive.
  const Matrix y = MakeTargets();
  data::DataTable table;
  table
      .AddColumn(data::Column::Binary(
          "hot", {true, true, true, true, false, false, false, false}))
      .CheckOK();
  const search::ConditionPool pool = search::ConditionPool::Build(table, 4);
  search::SearchConfig config;
  config.max_depth = 1;
  config.min_coverage = 1;
  for (BaselineMeasure measure :
       {BaselineMeasure::kZScore, BaselineMeasure::kWracc,
        BaselineMeasure::kDispersionCorrected}) {
    MeasureEvaluator evaluator(y, 0, measure);
    const search::SearchResult result =
        search::BeamSearch(table, pool, config, evaluator);
    ASSERT_EQ(result.top.size(), 2u);
    for (const search::ScoredSubgroup& half : result.top) {
      EXPECT_GT(half.quality, 0.0) << half.intention.CanonicalSignature();
    }
  }
}

/// 240 rows: three numeric attributes, a four-level categorical and a
/// flag (a pool of ~30 conditions, so the deeper levels span several
/// scoring chunks); the target is shifted on the flag and skewed by the
/// first attribute.
data::DataTable MakeMixedTable(Matrix* y) {
  const size_t n = 240;
  random::Rng rng(17);
  std::vector<double> x(n), z(n), w(n);
  std::vector<int32_t> c4(n);
  std::vector<bool> flag(n);
  *y = Matrix(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Gaussian();
    z[i] = rng.Uniform();
    w[i] = rng.Gaussian();
    c4[i] = int32_t(rng.UniformInt(0, 3));
    flag[i] = rng.Bernoulli(0.3);
    (*y)(i, 0) = (flag[i] ? 2.0 : 0.0) + 0.5 * x[i] * x[i] + rng.Gaussian();
  }
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("x", x)).CheckOK();
  table.AddColumn(data::Column::Numeric("z", z)).CheckOK();
  table.AddColumn(data::Column::Numeric("w", w)).CheckOK();
  table.AddColumn(data::Column::Categorical("c4", c4, {"a", "b", "c", "d"}))
      .CheckOK();
  table.AddColumn(data::Column::Binary("flag", flag)).CheckOK();
  return table;
}

TEST(MeasureEvaluatorTest, ParallelBeamMatchesReferenceEvaluator) {
  // The evaluator is scored by the beam's worker pool; at every thread
  // count the search must return exactly what the single-worker reference
  // evaluator over the free functions returns.
  Matrix y;
  const data::DataTable table = MakeMixedTable(&y);
  const search::ConditionPool pool = search::ConditionPool::Build(table, 4);
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  search::SearchConfig config;
  config.beam_width = 20;
  config.max_depth = 3;
  config.top_k = 40;
  config.min_coverage = 10;

  struct Variant {
    BaselineMeasure measure;
    DispersionCorrectedParams params;
  };
  for (const Variant& v :
       {Variant{BaselineMeasure::kZScore, {}},
        Variant{BaselineMeasure::kWracc, {}},
        Variant{BaselineMeasure::kDispersionCorrected, {}},
        Variant{BaselineMeasure::kDispersionCorrected, {0.0, true}},
        Variant{BaselineMeasure::kDispersionCorrected, {1.0, false}}}) {
    const auto quality = [&](const pattern::Intention&,
                             const Extension& extension) {
      switch (v.measure) {
        case BaselineMeasure::kZScore:
          return ZScoreQuality(y, 0, summary, extension);
        case BaselineMeasure::kWracc:
          return std::fabs(WraccQuality(y, 0, summary, extension));
        case BaselineMeasure::kDispersionCorrected:
          break;
      }
      return DispersionCorrectedFamilyQuality(y, 0, summary, extension,
                                              v.params);
    };
    const search::SearchResult expected =
        search::reference::ReferenceBeamSearch(table, pool, config, quality);
    ASSERT_FALSE(expected.top.empty());
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("measure " + std::to_string(int(v.measure)) + " a=" +
                   std::to_string(v.params.size_exponent) + " x " +
                   std::to_string(threads) + " threads");
      search::SearchConfig threaded = config;
      threaded.num_threads = threads;
      MeasureEvaluator evaluator(y, 0, v.measure, v.params);
      const search::SearchResult actual =
          search::BeamSearch(table, pool, threaded, evaluator);
      EXPECT_EQ(actual.num_evaluated, expected.num_evaluated);
      ASSERT_EQ(actual.top.size(), expected.top.size());
      for (size_t i = 0; i < actual.top.size(); ++i) {
        EXPECT_EQ(actual.top[i].intention.CanonicalSignature(),
                  expected.top[i].intention.CanonicalSignature())
            << "rank " << i;
        EXPECT_EQ(actual.top[i].quality, expected.top[i].quality)
            << "rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace sisd::baseline
