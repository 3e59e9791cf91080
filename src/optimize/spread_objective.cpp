#include "optimize/spread_objective.hpp"

#include <limits>

#include "pattern/patterns.hpp"
#include "stats/chi2_mixture.hpp"
#include "stats/descriptive.hpp"

namespace sisd::optimize {

SpreadObjective::SpreadObjective(const model::BackgroundModel& model,
                                 const pattern::Extension& extension,
                                 const linalg::Matrix& y) {
  SISD_CHECK(!extension.empty());
  size_ = double(extension.count());
  const std::vector<size_t> counts = model.GroupCounts(extension);
  for (size_t g = 0; g < counts.size(); ++g) {
    if (counts[g] == 0) continue;
    GroupTerm term;
    term.sigma = model.group(g).sigma;
    term.count = double(counts[g]);
    groups_.push_back(std::move(term));
  }
  const std::vector<size_t> rows = extension.ToRows();
  const linalg::Vector mean = stats::ColumnMeans(y, rows);
  scatter_ = stats::ScatterAround(y, rows, mean);

  mixture_cov_ = linalg::Matrix(y.cols(), y.cols());
  for (const GroupTerm& term : groups_) {
    mixture_cov_.AddScaled(term.sigma, term.count / size_);
  }
}

double SpreadObjective::Value(const linalg::Vector& w) const {
  return Evaluate(w, nullptr);
}

double SpreadObjective::ValueAndGradient(const linalg::Vector& w,
                                         linalg::Vector* gradient) const {
  SISD_CHECK(gradient != nullptr);
  return Evaluate(w, gradient);
}

double SpreadObjective::ObservedVariance(const linalg::Vector& w) const {
  return scatter_.QuadraticForm(w);
}

SpreadObjective SpreadObjective::Restricted(
    const std::vector<size_t>& coords) const {
  SpreadObjective out;
  out.size_ = size_;
  out.scatter_ = scatter_.Submatrix(coords);
  out.mixture_cov_ = mixture_cov_.Submatrix(coords);
  for (const GroupTerm& term : groups_) {
    GroupTerm reduced;
    reduced.sigma = term.sigma.Submatrix(coords);
    reduced.count = term.count;
    out.groups_.push_back(std::move(reduced));
  }
  return out;
}

double SpreadObjective::Evaluate(const linalg::Vector& w,
                                 linalg::Vector* gradient) const {
  SISD_CHECK(w.size() == dim());

  // Power sums of the coefficients a_g = w' Sigma_g w / |I| and their
  // per-group matrix-vector products (reused in the gradient).
  double a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::vector<linalg::Vector> sigma_w;
  std::vector<double> a_of_group;
  sigma_w.reserve(groups_.size());
  a_of_group.reserve(groups_.size());
  for (const GroupTerm& term : groups_) {
    linalg::Vector sw = term.sigma.MatVec(w);
    const double a = w.Dot(sw) / size_;
    SISD_CHECK(a > 0.0);
    a_of_group.push_back(a);
    sigma_w.push_back(std::move(sw));
    a1 += term.count * a;
    a2 += term.count * a * a;
    a3 += term.count * a * a * a;
  }
  const stats::Chi2MixtureApprox approx =
      stats::FitChi2MixtureFromPowerSums(a1, a2, a3);

  const linalg::Vector scatter_w = scatter_.MatVec(w);
  const double g_val = w.Dot(scatter_w);
  // A direction outside the IC's support is infeasible.
  if (!approx.InSupport(g_val)) {
    if (gradient != nullptr) *gradient = linalg::Vector(dim());
    return -std::numeric_limits<double>::infinity();
  }
  stats::Chi2MixtureApprox::Partials partials;
  const double ic =
      approx.NegLogPdf(g_val, gradient != nullptr ? &partials : nullptr);
  if (gradient == nullptr) return ic;

  linalg::Vector grad(dim());
  // dg/dw = 2 S w.
  grad.AddScaled(scatter_w, 2.0 * partials.g);
  // dA_k/dw = sum_g count_g * k * a_g^{k-1} * (2 Sigma_g w / |I|).
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    const double a = a_of_group[gi];
    const double coeff =
        partials.a1 + partials.a2 * 2.0 * a + partials.a3 * 3.0 * a * a;
    grad.AddScaled(sigma_w[gi], coeff * 2.0 * groups_[gi].count / size_);
  }
  *gradient = std::move(grad);
  return ic;
}

}  // namespace sisd::optimize
