/// \file descriptive.hpp
/// \brief Descriptive statistics: online mean/variance (Welford), empirical
/// covariance matrices, quantiles and percentile split points.
///
/// The search layer uses `QuantileSplitPoints` to build the Cortana-style
/// condition pool (1/5..4/5 percentiles, paper §III); the model layer uses
/// empirical means/covariances to initialize the background distribution.

#ifndef SISD_STATS_DESCRIPTIVE_HPP_
#define SISD_STATS_DESCRIPTIVE_HPP_

#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace sisd::stats {

/// \brief Numerically stable one-pass mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations added.
  size_t count() const { return count_; }

  /// Mean of the observations (0 when empty).
  double Mean() const { return mean_; }

  /// Population variance (divides by n; 0 when n < 1).
  double VariancePopulation() const;

  /// Sample variance (divides by n-1; 0 when n < 2).
  double VarianceSample() const;

  /// Population standard deviation.
  double StdDevPopulation() const;

  /// Minimum observation (+inf when empty).
  double Min() const { return min_; }

  /// Maximum observation (-inf when empty).
  double Max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// \brief Mean of `values` (0 for empty input).
double Mean(const std::vector<double>& values);

/// \brief Population variance of `values` (divides by n).
double VariancePopulation(const std::vector<double>& values);

/// \brief Column-wise mean of the rows of `y` (shape n x d -> d).
linalg::Vector ColumnMeans(const linalg::Matrix& y);

/// \brief Column-wise mean over the subset of rows in `rows`.
linalg::Vector ColumnMeans(const linalg::Matrix& y,
                           const std::vector<size_t>& rows);

/// \brief Empirical covariance (population, divides by n) of the rows of `y`.
linalg::Matrix CovarianceMatrix(const linalg::Matrix& y);

/// \brief Empirical covariance of the subset of rows in `rows`.
linalg::Matrix CovarianceMatrix(const linalg::Matrix& y,
                                const std::vector<size_t>& rows);

/// \brief Scatter matrix around a fixed `center`:
/// `sum_{i in rows} (y_i - center)(y_i - center)' / |rows|`.
linalg::Matrix ScatterAround(const linalg::Matrix& y,
                             const std::vector<size_t>& rows,
                             const linalg::Vector& center);

/// \brief Linear-interpolation quantile of `values` at `p` in [0, 1]
/// (type-7 / NumPy default). `values` need not be sorted; empty input aborts.
double Quantile(std::vector<double> values, double p);

/// \brief Cortana-style numeric split points: the `k` quantiles at
/// `1/(k+1), ..., k/(k+1)` (k = 4 gives the paper's 1/5..4/5 percentiles).
/// Duplicates (from ties) are removed; result is sorted ascending.
/// `values` must hold no NaN; it is taken by value and reordered in place:
/// pass a temporary (or move) to avoid a copy.
///
/// The 2k interpolation neighbours are picked by selection, not by
/// sorting the column: `std::nth_element` on the not-yet-partitioned
/// suffix for each `lo`, and the minimum of what lies right of `lo` for
/// its `hi` neighbour. Ranks already placed (tiny columns, where `lo`
/// repeats or equals the previous `hi`) are reused as they stand. The
/// result is bit-identical to interpolating over the fully sorted column:
/// a selected element compares equal to the sorted one at its rank, and
/// two non-NaN doubles that compare equal under `<` differ in bits only
/// when they are +0.0 and -0.0. A column holding both zero signs is
/// therefore sorted in full, exactly as before.
std::vector<double> QuantileSplitPoints(std::vector<double> values,
                                        int num_splits);

/// \brief Pearson correlation of two equally sized samples; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace sisd::stats

#endif  // SISD_STATS_DESCRIPTIVE_HPP_
