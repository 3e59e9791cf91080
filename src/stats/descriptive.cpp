#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/status.hpp"

namespace sisd::stats {

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / double(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::VariancePopulation() const {
  if (count_ < 1) return 0.0;
  return m2_ / double(count_);
}

double RunningStats::VarianceSample() const {
  if (count_ < 2) return 0.0;
  return m2_ / double(count_ - 1);
}

double RunningStats::StdDevPopulation() const {
  return std::sqrt(VariancePopulation());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc / double(values.size());
}

double VariancePopulation(const std::vector<double>& values) {
  RunningStats rs;
  for (double v : values) rs.Add(v);
  return rs.VariancePopulation();
}

linalg::Vector ColumnMeans(const linalg::Matrix& y) {
  std::vector<size_t> rows(y.rows());
  for (size_t i = 0; i < y.rows(); ++i) rows[i] = i;
  return ColumnMeans(y, rows);
}

linalg::Vector ColumnMeans(const linalg::Matrix& y,
                           const std::vector<size_t>& rows) {
  SISD_CHECK(!rows.empty());
  linalg::Vector mean(y.cols());
  for (size_t i : rows) {
    const double* row = y.RowData(i);
    for (size_t c = 0; c < y.cols(); ++c) mean[c] += row[c];
  }
  mean /= double(rows.size());
  return mean;
}

linalg::Matrix CovarianceMatrix(const linalg::Matrix& y) {
  std::vector<size_t> rows(y.rows());
  for (size_t i = 0; i < y.rows(); ++i) rows[i] = i;
  return CovarianceMatrix(y, rows);
}

linalg::Matrix CovarianceMatrix(const linalg::Matrix& y,
                                const std::vector<size_t>& rows) {
  const linalg::Vector mean = ColumnMeans(y, rows);
  return ScatterAround(y, rows, mean);
}

linalg::Matrix ScatterAround(const linalg::Matrix& y,
                             const std::vector<size_t>& rows,
                             const linalg::Vector& center) {
  SISD_CHECK(!rows.empty());
  SISD_CHECK(center.size() == y.cols());
  const size_t d = y.cols();
  linalg::Matrix cov(d, d);
  linalg::Vector centered(d);
  for (size_t i : rows) {
    const double* row = y.RowData(i);
    for (size_t c = 0; c < d; ++c) centered[c] = row[c] - center[c];
    cov.AddOuter(centered, 1.0);
  }
  cov *= 1.0 / double(rows.size());
  return cov;
}

double Quantile(std::vector<double> values, double p) {
  SISD_CHECK(!values.empty());
  SISD_CHECK(p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double idx = p * double(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - double(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::vector<double> QuantileSplitPoints(std::vector<double> values,
                                        int num_splits) {
  SISD_CHECK(num_splits >= 1);
  if (values.empty()) return {};
  const size_t n = values.size();
  // Selection hands back sort's bits unless both zero signs are present
  // (see the header); only then does the column pay for the full sort.
  bool positive_zero = false;
  bool negative_zero = false;
  for (double v : values) {
    SISD_DCHECK(!std::isnan(v));
    if (v == 0.0) (std::signbit(v) ? negative_zero : positive_zero) = true;
  }
  const bool sorted = positive_zero && negative_zero;
  if (sorted) std::sort(values.begin(), values.end());

  // Positions below `settled` hold their sorted value or are never read
  // again: the ranks asked for never decrease, and every element at or
  // after `settled` compares >= every settled one.
  size_t settled = 0;
  const auto order_statistic = [&](size_t rank) {
    if (!sorted && rank >= settled) {
      const auto at = values.begin() + static_cast<ptrdiff_t>(rank);
      if (rank == settled) {
        std::iter_swap(at, std::min_element(at, values.end()));
      } else {
        std::nth_element(values.begin() + static_cast<ptrdiff_t>(settled),
                         at, values.end());
      }
      settled = rank + 1;
    }
    return values[rank];
  };

  std::vector<double> splits;
  splits.reserve(static_cast<size_t>(num_splits));
  for (int k = 1; k <= num_splits; ++k) {
    const double p = double(k) / double(num_splits + 1);
    const double idx = p * double(n - 1);
    const size_t lo = static_cast<size_t>(std::floor(idx));
    const size_t hi = std::min(lo + 1, n - 1);
    const double frac = idx - double(lo);
    const double lo_value = order_statistic(lo);
    const double hi_value = order_statistic(hi);
    splits.push_back(lo_value * (1.0 - frac) + hi_value * frac);
  }
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  return splits;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  SISD_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const double ma = Mean(a);
  const double mb = Mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

}  // namespace sisd::stats
