#include "stats/descriptive.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace sisd::stats {
namespace {

TEST(RunningStatsTest, MatchesClosedForms) {
  RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(v);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.VariancePopulation(), 4.0);
  EXPECT_DOUBLE_EQ(rs.StdDevPopulation(), 2.0);
  EXPECT_NEAR(rs.VarianceSample(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.Min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.Max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.VariancePopulation(), 0.0);
  rs.Add(3.0);
  EXPECT_DOUBLE_EQ(rs.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.VariancePopulation(), 0.0);
  EXPECT_DOUBLE_EQ(rs.VarianceSample(), 0.0);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffsets) {
  RunningStats rs;
  const double offset = 1e9;
  for (double v : {1.0, 2.0, 3.0}) rs.Add(offset + v);
  EXPECT_NEAR(rs.Mean(), offset + 2.0, 1e-5);
  EXPECT_NEAR(rs.VariancePopulation(), 2.0 / 3.0, 1e-5);
}

TEST(MeanVarianceTest, FreeFunctions) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(VariancePopulation({1.0, 2.0, 3.0}), 2.0 / 3.0, 1e-14);
}

TEST(ColumnMeansTest, FullAndSubset) {
  linalg::Matrix y{{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  const linalg::Vector full = ColumnMeans(y);
  EXPECT_DOUBLE_EQ(full[0], 2.0);
  EXPECT_DOUBLE_EQ(full[1], 20.0);
  const linalg::Vector sub = ColumnMeans(y, {0, 2});
  EXPECT_DOUBLE_EQ(sub[0], 2.0);
  EXPECT_DOUBLE_EQ(sub[1], 20.0);
  const linalg::Vector one = ColumnMeans(y, {1});
  EXPECT_DOUBLE_EQ(one[0], 2.0);
  EXPECT_DOUBLE_EQ(one[1], 20.0);
}

TEST(CovarianceMatrixTest, KnownCovariance) {
  // Perfectly anti-correlated columns.
  linalg::Matrix y{{1.0, -1.0}, {-1.0, 1.0}};
  const linalg::Matrix cov = CovarianceMatrix(y);
  EXPECT_DOUBLE_EQ(cov(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cov(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), -1.0);
}

TEST(CovarianceMatrixTest, SubsetRows) {
  linalg::Matrix y{{0.0, 0.0}, {2.0, 2.0}, {100.0, -100.0}};
  const linalg::Matrix cov = CovarianceMatrix(y, {0, 1});
  EXPECT_DOUBLE_EQ(cov(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cov(0, 1), 1.0);
}

TEST(ScatterAroundTest, FixedCenterDiffersFromCovariance) {
  linalg::Matrix y{{1.0}, {3.0}};
  // Around the mean (2): variance 1. Around 0: E[y^2] = 5.
  const linalg::Matrix around_mean =
      ScatterAround(y, {0, 1}, linalg::Vector{2.0});
  EXPECT_DOUBLE_EQ(around_mean(0, 0), 1.0);
  const linalg::Matrix around_zero =
      ScatterAround(y, {0, 1}, linalg::Vector{0.0});
  EXPECT_DOUBLE_EQ(around_zero(0, 0), 5.0);
}

TEST(QuantileTest, InterpolatesType7) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0 / 3.0), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.3), 7.0);
}

TEST(QuantileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileSplitPointsTest, FourSplitsAreQuintiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(double(i));
  const std::vector<double> splits = QuantileSplitPoints(values, 4);
  ASSERT_EQ(splits.size(), 4u);
  EXPECT_NEAR(splits[0], 20.8, 1e-12);  // 20th percentile, type 7
  EXPECT_NEAR(splits[1], 40.6, 1e-12);
  EXPECT_NEAR(splits[2], 60.4, 1e-12);
  EXPECT_NEAR(splits[3], 80.2, 1e-12);
}

TEST(QuantileSplitPointsTest, DeduplicatesTies) {
  std::vector<double> values(100, 5.0);
  const std::vector<double> splits = QuantileSplitPoints(values, 4);
  EXPECT_EQ(splits.size(), 1u);
  EXPECT_DOUBLE_EQ(splits[0], 5.0);
}

TEST(QuantileSplitPointsTest, EmptyInput) {
  EXPECT_TRUE(QuantileSplitPoints({}, 4).empty());
}

/// The sort-based split points `QuantileSplitPoints` computed before it
/// switched to selection: the oracle its output must match bit for bit.
std::vector<double> SortedQuantileSplitPoints(std::vector<double> values,
                                              int num_splits) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  std::vector<double> splits;
  for (int k = 1; k <= num_splits; ++k) {
    const double p = double(k) / double(num_splits + 1);
    const double idx = p * double(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(idx));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = idx - double(lo);
    splits.push_back(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  return splits;
}

/// Column shapes that stress the selection: continuous draws, 3-5-level
/// tie grids, all-equal columns, both zero signs (the full-sort
/// fallback), only -0.0, subnormals, and +-DBL_MAX.
enum class Shape {
  kContinuous,
  kTieGrid,
  kAllEqual,
  kMixedZeros,
  kNegativeZeroOnly,
  kSubnormal,
  kExtremes,
  kCount
};

std::vector<double> MakeColumn(Shape shape, size_t n, random::Rng& rng) {
  std::vector<double> levels;
  switch (shape) {
    case Shape::kContinuous:
    case Shape::kCount:
      break;
    case Shape::kTieGrid:
      for (int64_t l = rng.UniformInt(3, 5); l > 0; --l) {
        levels.push_back(std::round(rng.Gaussian(0.0, 4.0)) * 0.5);
      }
      break;
    case Shape::kAllEqual:
      levels = {rng.Gaussian()};
      break;
    case Shape::kMixedZeros:
      levels = {0.0, -0.0, 1.5, -2.25};
      break;
    case Shape::kNegativeZeroOnly:
      levels = {-0.0, -0.0, 3.0, -1.0};
      break;
    case Shape::kSubnormal: {
      const double tiny = std::numeric_limits<double>::denorm_min();
      levels = {tiny, -tiny, 7.0 * tiny, DBL_MIN / 2.0, -DBL_MIN / 4.0, 0.0};
      break;
    }
    case Shape::kExtremes:
      levels = {DBL_MAX, -DBL_MAX, DBL_MAX, 1.0, -1.0, 0.0};
      break;
  }
  std::vector<double> column(n);
  for (double& v : column) {
    v = levels.empty()
            ? rng.Gaussian(0.0, 10.0)
            : levels[static_cast<size_t>(rng.UniformInt(
                  0, static_cast<int64_t>(levels.size()) - 1))];
  }
  if (shape == Shape::kMixedZeros && n >= 2) {
    // Guarantee both signs, so the fallback path really runs.
    column[static_cast<size_t>(rng.UniformInt(0, int64_t(n) - 1))] = 0.0;
    column[static_cast<size_t>(rng.UniformInt(0, int64_t(n) - 1))] = -0.0;
  }
  return column;
}

std::string DescribeColumn(const std::vector<double>& column) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < column.size(); ++i) {
    out << (i > 0 ? ", " : "") << std::hexfloat << column[i];
  }
  out << "}";
  return out.str();
}

/// Checks one column against the sort-based oracle with `memcmp`, so a
/// -0.0 where sorting gives +0.0 (or any other bit flip) fails.
void ExpectSelectionMatchesSort(const std::vector<double>& column,
                                int num_splits, uint64_t seed) {
  const std::vector<double> expected =
      SortedQuantileSplitPoints(column, num_splits);
  const std::vector<double> actual = QuantileSplitPoints(column, num_splits);
  const bool same =
      expected.size() == actual.size() &&
      std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0;
  EXPECT_TRUE(same) << "seed " << seed << ", num_splits " << num_splits
                    << ", n " << column.size() << ", column "
                    << DescribeColumn(column) << "\n  sorted:   "
                    << DescribeColumn(expected) << "\n  selected: "
                    << DescribeColumn(actual);
}

TEST(QuantileSplitPointsTest, SelectionMatchesSortBitForBit) {
  size_t columns = 0;
  // Every tiny size (where `lo` repeats or equals the previous `hi`)
  // against every shape and split count, three seeds each.
  for (size_t n = 1; n <= 12; ++n) {
    for (int shape = 0; shape < int(Shape::kCount); ++shape) {
      for (int num_splits = 1; num_splits <= 10; ++num_splits) {
        for (uint64_t rep = 0; rep < 3; ++rep) {
          const uint64_t seed = (n * 1000 + uint64_t(shape)) * 1000 +
                                uint64_t(num_splits) * 10 + rep;
          random::Rng rng(seed);
          ExpectSelectionMatchesSort(MakeColumn(Shape(shape), n, rng),
                                     num_splits, seed);
          ++columns;
        }
      }
    }
  }
  // Random sizes up to 5000, log-uniform so small and large both appear.
  for (uint64_t seed = 1; seed <= 8000; ++seed) {
    random::Rng rng(seed);
    const size_t n = static_cast<size_t>(
        std::exp(rng.Uniform(0.0, std::log(5000.0))));
    const auto shape = Shape(rng.UniformInt(0, int64_t(Shape::kCount) - 1));
    const int num_splits = static_cast<int>(rng.UniformInt(1, 10));
    ExpectSelectionMatchesSort(MakeColumn(shape, std::max<size_t>(n, 1), rng),
                               num_splits, seed);
    ++columns;
  }
  EXPECT_GE(columns, 10000u);
}

TEST(PearsonCorrelationTest, PerfectAndZero) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {3, 2, 1}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1.0}, {2.0}), 0.0);
}

TEST(PearsonCorrelationTest, RandomDataInRange) {
  random::Rng rng(99);
  std::vector<double> a(200), b(200);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = 0.5 * a[i] + rng.Gaussian();
  }
  const double r = PearsonCorrelation(a, b);
  EXPECT_GT(r, 0.2);
  EXPECT_LT(r, 0.7);
}

}  // namespace
}  // namespace sisd::stats
