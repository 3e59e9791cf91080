#include "si/evaluation_context.hpp"

#include <cmath>

namespace sisd::si {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

}  // namespace

EvaluationContext::EvaluationContext(const model::BackgroundModel& model,
                                     const linalg::Matrix* targets)
    : model_(&model),
      targets_(targets),
      diff_(model.dim()),
      fsolve_(model.dim()),
      scratch_mean_(model.dim()) {
  counts_.reserve(model.num_groups() + 8);
  if (model.num_groups() > 1 && model.dim() > 1) {
    // Size the marginal scratch up front so scoring never allocates (a
    // single-group model and dy = 1 never take the generic marginal path).
    marginal_mean_ = linalg::Vector(model.dim());
    marginal_cov_ = linalg::Matrix::Identity(model.dim());
    marginal_chol_.Refactor(marginal_cov_).CheckOK();
  }
}

double EvaluationContext::LocationIC(const pattern::Extension& extension,
                                     const linalg::Vector& empirical_mean) {
  SISD_CHECK(!extension.empty());
  if (model_->num_groups() > 1) model_->GroupCountsInto(extension, &counts_);
  return ICFromCounts(extension.count(), empirical_mean);
}

double EvaluationContext::LocationICMasked(
    const pattern::Extension& a, const pattern::Extension& b, size_t count,
    const linalg::Vector& empirical_mean) {
  SISD_CHECK(count > 0);
  if (model_->num_groups() > 1) model_->GroupCountsMaskedInto(a, b, &counts_);
  return ICFromCounts(count, empirical_mean);
}

LocationScore EvaluationContext::ScoreLocation(
    const pattern::Extension& extension, const linalg::Vector& empirical_mean,
    size_t num_conditions, const DescriptionLengthParams& params) {
  return ScoreFromIC(LocationIC(extension, empirical_mean), num_conditions,
                     params);
}

LocationScore EvaluationContext::ScoreLocationMasked(
    const pattern::Extension& a, const pattern::Extension& b, size_t count,
    const linalg::Vector& empirical_mean, size_t num_conditions,
    const DescriptionLengthParams& params) {
  return ScoreFromIC(LocationICMasked(a, b, count, empirical_mean),
                     num_conditions, params);
}

LocationScore EvaluationContext::ScoreLocationFromGroupCounts(
    const uint32_t* group_counts, size_t stride, size_t count,
    const linalg::Vector& empirical_mean, size_t num_conditions,
    const DescriptionLengthParams& params) {
  SISD_CHECK(count > 0);
  const size_t num_groups = model_->num_groups();
  if (num_groups > 1) {
    counts_.resize(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      counts_[g] = group_counts[g * stride];
    }
  }
  return ScoreFromIC(ICFromCounts(count, empirical_mean), num_conditions,
                     params);
}

void EvaluationContext::SubgroupMeanInto(const pattern::Extension& extension,
                                         linalg::Vector* out) const {
  SISD_CHECK(targets_ != nullptr);
  pattern::SubgroupMeanInto(*targets_, extension, out);
}

void EvaluationContext::MaskedSubgroupMeanInto(const pattern::Extension& a,
                                               const pattern::Extension& b,
                                               size_t count,
                                               linalg::Vector* out) const {
  SISD_CHECK(targets_ != nullptr);
  pattern::MaskedSubgroupMeanInto(*targets_, a, b, count, out);
}

LocationScore EvaluationContext::ScoreFromIC(
    double ic, size_t num_conditions, const DescriptionLengthParams& params) {
  LocationScore score;
  score.ic = ic;
  score.dl = LocationDescriptionLength(num_conditions, params);
  score.si = score.ic / score.dl;
  return score;
}

double EvaluationContext::ICFromCounts(size_t total,
                                       const linalg::Vector& empirical_mean) {
  const size_t dy = model_->dim();
  const double size = double(total);

  size_t single_group = 0;
  size_t groups_hit = 1;
  if (model_->num_groups() > 1) {
    groups_hit = 0;
    for (size_t g = 0; g < counts_.size(); ++g) {
      if (counts_[g] > 0) {
        ++groups_hit;
        single_group = g;
      }
    }
    SISD_CHECK(groups_hit > 0);
  }

  if (groups_hit == 1) {
    // Sigma_I = Sigma_g / |I|  =>  logdet = logdet(Sigma_g) - dy*log|I|,
    // and (x)'(Sigma_g/|I|)^{-1}(x) = |I| * x' Sigma_g^{-1} x.
    diff_.AssignDifference(empirical_mean, model_->group(single_group).mu);
    const double quad =
        size *
        model_->GroupCholesky(single_group).InverseQuadraticForm(diff_,
                                                                 &fsolve_);
    const double logdet =
        model_->GroupLogDetSigma(single_group) - double(dy) * std::log(size);
    return 0.5 * (double(dy) * kLog2Pi + logdet) + 0.5 * quad;
  }

  if (dy == 1) {
    // The multi-group marginal in scalar arithmetic: the operations of
    // `MeanStatMarginalInto` + `Cholesky::Refactor` + `LogDeterminant` +
    // `InverseQuadraticForm` below on 1 x 1 matrices, in the same order, so
    // every bit matches the generic path.
    double mean = 0.0;
    double variance = 0.0;
    for (size_t g = 0; g < counts_.size(); ++g) {
      if (counts_[g] == 0) continue;
      const double weight = double(counts_[g]);
      mean += weight / size * model_->group(g).mu[0];
      variance += weight / (size * size) * model_->group(g).sigma(0, 0);
    }
    SISD_CHECK(variance > 0.0 && std::isfinite(variance));
    const double root = std::sqrt(variance);
    const double z = (empirical_mean[0] - mean) / root;
    return 0.5 * (kLog2Pi + 2.0 * std::log(root)) + 0.5 * (z * z);
  }
  model_->MeanStatMarginalInto(counts_, size, &marginal_mean_,
                               &marginal_cov_);
  marginal_chol_.Refactor(marginal_cov_).CheckOK();
  diff_.AssignDifference(empirical_mean, marginal_mean_);
  return 0.5 * (double(dy) * kLog2Pi + marginal_chol_.LogDeterminant()) +
         0.5 * marginal_chol_.InverseQuadraticForm(diff_, &fsolve_);
}

}  // namespace sisd::si
