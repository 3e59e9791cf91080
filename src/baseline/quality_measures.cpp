#include "baseline/quality_measures.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"

namespace sisd::baseline {

namespace {

std::vector<double> TargetValues(const linalg::Matrix& y, size_t target,
                                 const pattern::Extension& extension) {
  std::vector<double> values;
  values.reserve(extension.count());
  for (size_t i : extension.ToRows()) values.push_back(y(i, target));
  return values;
}

}  // namespace

TargetSummary TargetSummary::Compute(const linalg::Matrix& y, size_t target) {
  SISD_CHECK(target < y.cols());
  TargetSummary out;
  stats::RunningStats rs;
  std::vector<double> values;
  values.reserve(y.rows());
  for (size_t i = 0; i < y.rows(); ++i) {
    rs.Add(y(i, target));
    values.push_back(y(i, target));
  }
  out.mean = rs.Mean();
  out.stddev = rs.StdDevPopulation();
  out.median = stats::Quantile(values, 0.5);
  out.n = y.rows();
  return out;
}

double ZScoreQuality(const linalg::Matrix& y, size_t target,
                     const TargetSummary& summary,
                     const pattern::Extension& extension) {
  SISD_CHECK(!extension.empty());
  if (summary.stddev <= 0.0) return 0.0;
  double mean_i = 0.0;
  for (size_t i : extension.ToRows()) mean_i += y(i, target);
  mean_i /= double(extension.count());
  return std::sqrt(double(extension.count())) *
         std::fabs(mean_i - summary.mean) / summary.stddev;
}

double WraccQuality(const linalg::Matrix& y, size_t target,
                    const TargetSummary& summary,
                    const pattern::Extension& extension) {
  SISD_CHECK(!extension.empty());
  double mean_i = 0.0;
  for (size_t i : extension.ToRows()) mean_i += y(i, target);
  mean_i /= double(extension.count());
  return (double(extension.count()) / double(summary.n)) *
         (mean_i - summary.mean);
}

double DispersionCorrectedQuality(const linalg::Matrix& y, size_t target,
                                  const TargetSummary& summary,
                                  const pattern::Extension& extension) {
  return DispersionCorrectedFamilyQuality(y, target, summary, extension,
                                          DispersionCorrectedParams{});
}

double DispersionCorrectedFamilyQuality(
    const linalg::Matrix& y, size_t target, const TargetSummary& summary,
    const pattern::Extension& extension,
    const DispersionCorrectedParams& params) {
  SISD_CHECK(!extension.empty());
  std::vector<double> values = TargetValues(y, target, extension);
  const double median_i = stats::Quantile(values, 0.5);
  double amd = 0.0;
  for (double v : values) amd += std::fabs(v - median_i);
  amd /= double(values.size());
  const double raw_shift = median_i - summary.median;
  const double shift =
      params.two_sided ? std::fabs(raw_shift) : std::max(0.0, raw_shift);
  const double m = double(values.size());
  // Keep the historical sqrt() bits for the default exponent.
  const double size_term = params.size_exponent == 0.5
                               ? std::sqrt(m)
                               : std::pow(m, params.size_exponent);
  return size_term * shift / (1.0 + amd);
}

MeasureEvaluator::MeasureEvaluator(const linalg::Matrix& y, size_t target,
                                   BaselineMeasure measure,
                                   DispersionCorrectedParams params)
    : y_(&y),
      target_(target),
      summary_(TargetSummary::Compute(y, target)),
      measure_(measure),
      params_(params) {}

void MeasureEvaluator::Prepare(size_t num_workers) {
  scratch_.assign(num_workers, pattern::Extension(y_->rows()));
}

void MeasureEvaluator::ScoreChunk(const search::CandidateBatch& batch,
                                  size_t begin, size_t end, size_t worker,
                                  double* scores) {
  pattern::Extension& extension = scratch_[worker];
  for (size_t i = begin; i < end; ++i) {
    const search::CandidateBatch::Item& item = batch.items[i];
    pattern::Extension::IntersectInto(batch.parent_extension(item),
                                      batch.condition_extension(item),
                                      &extension);
    scores[i] = Score(extension);
  }
}

double MeasureEvaluator::Score(const pattern::Extension& extension) const {
  switch (measure_) {
    case BaselineMeasure::kZScore:
      return ZScoreQuality(*y_, target_, summary_, extension);
    case BaselineMeasure::kWracc:
      return std::fabs(WraccQuality(*y_, target_, summary_, extension));
    case BaselineMeasure::kDispersionCorrected:
      return DispersionCorrectedFamilyQuality(*y_, target_, summary_,
                                              extension, params_);
  }
  return 0.0;
}

}  // namespace sisd::baseline
