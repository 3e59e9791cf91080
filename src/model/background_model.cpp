#include "model/background_model.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/strings.hpp"
#include "stats/descriptive.hpp"

namespace sisd::model {

namespace {

constexpr double kSqrtTwoPiLog = 1.8378770664093453;  // log(2*pi)

/// InvalidArgument unless every entry of `mu` and `sigma` is finite and
/// `sigma` is bitwise symmetric. The Cholesky factorization reads only the
/// lower triangle, so it accepts a covariance whose upper triangle is
/// wrong; the model's quadratic forms read both.
Status CheckGroupParameters(const linalg::Vector& mu,
                            const linalg::Matrix& sigma) {
  for (size_t i = 0; i < mu.size(); ++i) {
    if (!std::isfinite(mu[i])) {
      return Status::InvalidArgument(
          StrFormat("mean entry %zu is not finite", i));
    }
  }
  for (size_t i = 0; i < sigma.rows(); ++i) {
    for (size_t j = 0; j < sigma.cols(); ++j) {
      if (!std::isfinite(sigma(i, j))) {
        return Status::InvalidArgument(
            StrFormat("covariance entry (%zu,%zu) is not finite", i, j));
      }
      if (j < i && std::bit_cast<uint64_t>(sigma(i, j)) !=
                       std::bit_cast<uint64_t>(sigma(j, i))) {
        return Status::InvalidArgument(
            StrFormat("covariance is not symmetric at (%zu,%zu)", i, j));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<BackgroundModel> BackgroundModel::Create(size_t num_rows,
                                                linalg::Vector mu,
                                                linalg::Matrix sigma) {
  if (num_rows == 0) {
    return Status::InvalidArgument("background model needs at least one row");
  }
  if (sigma.rows() != mu.size() || sigma.cols() != mu.size()) {
    return Status::InvalidArgument("mu/sigma dimension mismatch");
  }
  SISD_RETURN_NOT_OK(CheckGroupParameters(mu, sigma));
  Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(sigma);
  if (!chol.ok()) {
    return Status::NumericalError("initial covariance is not SPD: " +
                                  chol.status().message());
  }
  BackgroundModel model;
  model.num_rows_ = num_rows;
  model.dim_ = mu.size();
  ParameterGroup group;
  group.mu = std::move(mu);
  group.sigma = std::move(sigma);
  group.rows = pattern::Extension(num_rows, /*full=*/true);
  model.groups_.push_back(std::move(group));
  model.group_of_row_.assign(num_rows, 0);
  model.group_chol_.push_back(std::move(chol).MoveValue());
  return model;
}

Result<BackgroundModel> BackgroundModel::CreateFromData(
    const linalg::Matrix& y, double ridge) {
  if (y.rows() == 0 || y.cols() == 0) {
    return Status::InvalidArgument("empty target matrix");
  }
  linalg::Vector mu = stats::ColumnMeans(y);
  linalg::Matrix sigma = stats::CovarianceMatrix(y);
  if (ridge > 0.0) {
    const double avg_diag = sigma.Trace() / double(sigma.rows());
    const double jitter = std::max(avg_diag, 1e-12) * ridge;
    for (size_t i = 0; i < sigma.rows(); ++i) sigma(i, i) += jitter;
  }
  return Create(y.rows(), std::move(mu), std::move(sigma));
}

Result<BackgroundModel> BackgroundModel::RestoreFromParts(
    size_t num_rows, size_t dim, std::vector<ParameterGroup> groups) {
  if (num_rows == 0 || dim == 0) {
    return Status::InvalidArgument("restored model needs rows and dims");
  }
  if (groups.empty()) {
    return Status::InvalidArgument("restored model needs parameter groups");
  }
  std::vector<uint32_t> group_of_row(num_rows,
                                     uint32_t(groups.size()));  // sentinel
  std::vector<linalg::Cholesky> group_chol(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const ParameterGroup& group = groups[g];
    if (group.mu.size() != dim || group.sigma.rows() != dim ||
        group.sigma.cols() != dim) {
      return Status::InvalidArgument(
          StrFormat("group %zu parameter dimensions disagree with dy=%zu", g,
                    dim));
    }
    if (group.rows.universe_size() != num_rows) {
      return Status::InvalidArgument(
          StrFormat("group %zu row universe disagrees with num_rows", g));
    }
    const Status parameters = CheckGroupParameters(group.mu, group.sigma);
    if (!parameters.ok()) {
      return Status::InvalidArgument(
          StrFormat("group %zu: %s", g, parameters.message().c_str()));
    }
    const Status factored = group_chol[g].Refactor(group.sigma);
    if (!factored.ok()) {
      return Status::InvalidArgument(StrFormat(
          "group %zu covariance is not SPD: %s", g,
          factored.message().c_str()));
    }
    bool overlap = false;
    group.rows.ForEachRow([&](size_t row) {
      if (group_of_row[row] != groups.size()) overlap = true;
      group_of_row[row] = static_cast<uint32_t>(g);
    });
    if (overlap) {
      return Status::InvalidArgument(
          StrFormat("group %zu overlaps an earlier group's rows", g));
    }
  }
  for (size_t row = 0; row < num_rows; ++row) {
    if (group_of_row[row] == groups.size()) {
      return Status::InvalidArgument(
          StrFormat("row %zu belongs to no parameter group", row));
    }
  }
  BackgroundModel model;
  model.num_rows_ = num_rows;
  model.dim_ = dim;
  model.groups_ = std::move(groups);
  model.group_of_row_ = std::move(group_of_row);
  model.group_chol_ = std::move(group_chol);
  return model;
}

linalg::Vector BackgroundModel::NaturalTheta1(size_t row) const {
  const size_t g = GroupOf(row);
  return GroupCholesky(g).Solve(groups_[g].mu);
}

linalg::Matrix BackgroundModel::NaturalTheta2(size_t row) const {
  const size_t g = GroupOf(row);
  linalg::Matrix inv = GroupCholesky(g).Inverse();
  inv *= -0.5;
  return inv;
}

double BackgroundModel::GroupLogDetSigma(size_t g) const {
  return GroupCholesky(g).LogDeterminant();
}

std::vector<size_t> BackgroundModel::GroupCounts(
    const pattern::Extension& extension) const {
  std::vector<size_t> counts;
  GroupCountsInto(extension, &counts);
  return counts;
}

void BackgroundModel::GroupCountsInto(const pattern::Extension& extension,
                                      std::vector<size_t>* out) const {
  SISD_CHECK(extension.universe_size() == num_rows_);
  SISD_CHECK(out != nullptr);
  out->resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    (*out)[g] = pattern::Extension::IntersectionCount(groups_[g].rows,
                                                      extension);
  }
}

void BackgroundModel::GroupCountsMaskedInto(const pattern::Extension& a,
                                            const pattern::Extension& b,
                                            std::vector<size_t>* out) const {
  SISD_CHECK(a.universe_size() == num_rows_ &&
             b.universe_size() == num_rows_);
  SISD_CHECK(out != nullptr);
  out->resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    (*out)[g] =
        pattern::Extension::IntersectionCountAnd(groups_[g].rows, a, b);
  }
}

MeanStatisticMarginal BackgroundModel::MeanStatMarginal(
    const pattern::Extension& extension) const {
  SISD_CHECK(!extension.empty());
  MeanStatisticMarginal out;
  MeanStatMarginalInto(GroupCounts(extension), double(extension.count()),
                       &out.mean, &out.cov);
  return out;
}

void BackgroundModel::MeanStatMarginalInto(const std::vector<size_t>& counts,
                                           double size, linalg::Vector* mean,
                                           linalg::Matrix* cov) const {
  SISD_CHECK(counts.size() == groups_.size());
  SISD_CHECK(size > 0.0);
  SISD_CHECK(mean != nullptr && cov != nullptr);
  if (mean->size() != dim_) *mean = linalg::Vector(dim_);
  if (cov->rows() != dim_ || cov->cols() != dim_) {
    *cov = linalg::Matrix(dim_, dim_);
  }
  mean->Fill(0.0);
  cov->Fill(0.0);
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (counts[g] == 0) continue;
    const double weight = double(counts[g]);
    mean->AddScaled(groups_[g].mu, weight / size);
    cov->AddScaled(groups_[g].sigma, weight / (size * size));
  }
}

std::vector<DirectionalTerm> BackgroundModel::DirectionalTerms(
    const pattern::Extension& extension, const linalg::Vector& w,
    const linalg::Vector& anchor) const {
  SISD_CHECK(w.size() == dim_ && anchor.size() == dim_);
  const std::vector<size_t> counts = GroupCounts(extension);
  std::vector<DirectionalTerm> terms;
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (counts[g] == 0) continue;
    DirectionalTerm term;
    term.s = groups_[g].sigma.QuadraticForm(w);
    term.d = (anchor - groups_[g].mu).Dot(w);
    term.count = counts[g];
    terms.push_back(term);
  }
  return terms;
}

Result<double> BackgroundModel::UpdateLocation(
    const pattern::Extension& extension, const linalg::Vector& target_mean) {
  if (extension.empty()) {
    return Status::InvalidArgument("location update with empty extension");
  }
  if (target_mean.size() != dim_) {
    return Status::InvalidArgument("target mean dimension mismatch");
  }
  // Average mean and covariance over the extension (before splitting:
  // values are identical either way, but we need the split groups to
  // apply the update, so split first).
  const std::vector<size_t> inside = SplitGroupsFor(extension);
  const double size = double(extension.count());
  linalg::Vector mu_bar(dim_);
  linalg::Matrix sigma_bar(dim_, dim_);
  for (size_t g : inside) {
    const double weight = double(groups_[g].count()) / size;
    mu_bar.AddScaled(groups_[g].mu, weight);
    sigma_bar.AddScaled(groups_[g].sigma, weight);
  }
  Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(sigma_bar);
  if (!chol.ok()) {
    return Status::NumericalError(
        "average covariance over extension not SPD: " +
        chol.status().message());
  }
  const linalg::Vector lambda = chol.Value().Solve(target_mean - mu_bar);
  for (size_t g : inside) {
    groups_[g].mu += groups_[g].sigma.MatVec(lambda);
    // Covariance unchanged: the group's factor stays valid.
  }
  return lambda.Norm();
}

Result<double> BackgroundModel::UpdateSpread(
    const pattern::Extension& extension, const linalg::Vector& w,
    const linalg::Vector& anchor, double target_variance) {
  if (extension.empty()) {
    return Status::InvalidArgument("spread update with empty extension");
  }
  if (w.size() != dim_ || anchor.size() != dim_) {
    return Status::InvalidArgument("direction/anchor dimension mismatch");
  }
  if (!(target_variance > 0.0)) {
    return Status::InvalidArgument("target variance must be positive");
  }
  const double norm = w.Norm();
  if (std::fabs(norm - 1.0) > 1e-8) {
    return Status::InvalidArgument("direction must be a unit vector");
  }
  const std::vector<size_t> inside = SplitGroupsFor(extension);
  std::vector<DirectionalTerm> terms;
  terms.reserve(inside.size());
  for (size_t g : inside) {
    DirectionalTerm term;
    term.s = groups_[g].sigma.QuadraticForm(w);
    term.d = (anchor - groups_[g].mu).Dot(w);
    term.count = groups_[g].count();
    terms.push_back(term);
  }
  SISD_ASSIGN_OR_RETURN(lambda, SolveSpreadLambda(terms, target_variance));

  // Stage every touched group's new parameters and factor, and commit only
  // when all of them factorize: Sigma stays SPD in exact arithmetic
  // (Theorem 2), but a near-degenerate target variance can round it to a
  // singular or indefinite matrix.
  struct Staged {
    linalg::Vector mu;
    linalg::Matrix sigma;
    linalg::Cholesky chol;
  };
  std::vector<Staged> staged(inside.size());
  for (size_t k = 0; k < inside.size(); ++k) {
    const ParameterGroup& group = groups_[inside[k]];
    const double s = group.sigma.QuadraticForm(w);
    const double d = (anchor - group.mu).Dot(w);
    const double denom = 1.0 + lambda * s;
    if (!(denom > 0.0)) {
      return Status::NumericalError(StrFormat(
          "spread multiplier %.6g leaves group %zu without a variance",
          lambda, inside[k]));
    }
    const linalg::Vector sigma_w = group.sigma.MatVec(w);
    Staged& next = staged[k];
    // Eq. (10): mu += lambda * d * Sigma w / (1 + lambda s).
    next.mu = group.mu;
    next.mu.AddScaled(sigma_w, lambda * d / denom);
    // Eq. (11): Sigma -= lambda * (Sigma w)(Sigma w)' / (1 + lambda s).
    next.sigma = group.sigma;
    next.sigma.AddOuter(sigma_w, -lambda / denom);
    next.sigma.Symmetrize();
    const Status factored = next.chol.Refactor(next.sigma);
    if (!factored.ok()) {
      return Status::NumericalError(StrFormat(
          "spread update leaves group %zu's covariance not SPD: %s",
          inside[k], factored.message().c_str()));
    }
  }
  for (size_t k = 0; k < inside.size(); ++k) {
    const size_t g = inside[k];
    groups_[g].mu = std::move(staged[k].mu);
    groups_[g].sigma = std::move(staged[k].sigma);
    group_chol_[g] = std::move(staged[k].chol);
  }
  return lambda;
}

double BackgroundModel::LogDensity(const linalg::Matrix& y) const {
  SISD_CHECK(y.rows() == num_rows_ && y.cols() == dim_);
  double acc = 0.0;
  for (size_t g = 0; g < groups_.size(); ++g) {
    const ParameterGroup& group = groups_[g];
    if (group.count() == 0) continue;
    const linalg::Cholesky& chol = GroupCholesky(g);
    const double logdet = chol.LogDeterminant();
    const double constant =
        -0.5 * (double(dim_) * kSqrtTwoPiLog + logdet);
    for (size_t i : group.rows.ToRows()) {
      const linalg::Vector diff = y.Row(i) - group.mu;
      acc += constant - 0.5 * chol.InverseQuadraticForm(diff);
    }
  }
  return acc;
}

double BackgroundModel::KlDivergenceFrom(const BackgroundModel& other) const {
  SISD_CHECK(num_rows_ == other.num_rows_ && dim_ == other.dim_);
  double acc = 0.0;
  for (size_t i = 0; i < num_rows_; ++i) {
    const size_t gp = GroupOf(i);
    const size_t gq = other.GroupOf(i);
    const ParameterGroup& p = groups_[gp];
    const ParameterGroup& q = other.groups_[gq];
    // KL(N(mu_p, S_p) || N(mu_q, S_q)).
    const linalg::Cholesky& chol_q = other.GroupCholesky(gq);
    const linalg::Matrix q_inv_p = chol_q.SolveMatrix(p.sigma);
    const linalg::Vector diff = q.mu - p.mu;
    acc += 0.5 * (q_inv_p.Trace() + chol_q.InverseQuadraticForm(diff) -
                  double(dim_) + chol_q.LogDeterminant() -
                  GroupCholesky(gp).LogDeterminant());
  }
  return acc;
}

double BackgroundModel::MaxParameterDelta(const BackgroundModel& other) const {
  SISD_CHECK(num_rows_ == other.num_rows_ && dim_ == other.dim_);
  double best = 0.0;
  // Compare per matching group pairs touched by rows: group structures can
  // differ, so compare row-wise but skip rows whose (group, group) pair was
  // already compared.
  std::vector<char> seen(groups_.size() * other.groups_.size(), 0);
  for (size_t i = 0; i < num_rows_; ++i) {
    const size_t gp = GroupOf(i);
    const size_t gq = other.GroupOf(i);
    char& flag = seen[gp * other.groups_.size() + gq];
    if (flag) continue;
    flag = 1;
    best = std::max(best, linalg::MaxAbsDiff(groups_[gp].mu,
                                             other.groups_[gq].mu));
    best = std::max(best, linalg::MaxAbsDiff(groups_[gp].sigma,
                                             other.groups_[gq].sigma));
  }
  return best;
}

linalg::Vector BackgroundModel::ExpectedSubgroupMean(
    const pattern::Extension& extension) const {
  return MeanStatMarginal(extension).mean;
}

double BackgroundModel::ExpectedDirectionalVariance(
    const pattern::Extension& extension, const linalg::Vector& w,
    const linalg::Vector& anchor) const {
  const std::vector<DirectionalTerm> terms =
      DirectionalTerms(extension, w, anchor);
  double acc = 0.0;
  size_t total = 0;
  for (const DirectionalTerm& term : terms) {
    acc += double(term.count) * (term.s + term.d * term.d);
    total += term.count;
  }
  SISD_CHECK(total > 0);
  return acc / double(total);
}

std::vector<size_t> BackgroundModel::SplitGroupsFor(
    const pattern::Extension& extension) {
  SISD_CHECK(extension.universe_size() == num_rows_);
  std::vector<size_t> inside;
  const size_t original_group_count = groups_.size();
  for (size_t g = 0; g < original_group_count; ++g) {
    const size_t overlap =
        pattern::Extension::IntersectionCount(groups_[g].rows, extension);
    if (overlap == 0) continue;
    if (overlap == groups_[g].count()) {
      inside.push_back(g);
      continue;
    }
    // Split: rows of g inside the extension move to a new group.
    pattern::Extension moved =
        pattern::Extension::Intersect(groups_[g].rows, extension);
    ParameterGroup fresh;
    fresh.mu = groups_[g].mu;
    fresh.sigma = groups_[g].sigma;
    fresh.rows = moved;
    const size_t fresh_id = groups_.size();
    for (size_t row : moved.ToRows()) {
      groups_[g].rows.Erase(row);
      group_of_row_[row] = static_cast<uint32_t>(fresh_id);
    }
    groups_.push_back(std::move(fresh));
    group_chol_.push_back(group_chol_[g]);  // same Sigma, same factor
    inside.push_back(fresh_id);
  }
  return inside;
}

Result<double> SolveSpreadLambda(const std::vector<DirectionalTerm>& terms,
                                 double target_variance, double tolerance,
                                 int max_iterations) {
  if (terms.empty()) {
    return Status::InvalidArgument("no directional terms");
  }
  if (!(target_variance > 0.0)) {
    return Status::InvalidArgument("target variance must be positive");
  }
  double s_max = 0.0;
  size_t total = 0;
  for (const DirectionalTerm& term : terms) {
    if (!(term.s > 0.0)) {
      return Status::NumericalError(
          "nonpositive variance along direction (covariance not SPD?)");
    }
    s_max = std::max(s_max, term.s);
    total += term.count;
  }
  const double target = double(total) * target_variance;

  // LHS(lambda) = sum count * [s/(1+lambda s) + d^2/(1+lambda s)^2],
  // strictly decreasing from +inf (lambda -> -1/s_max) to 0 (lambda -> inf).
  auto lhs_and_derivative = [&terms](double lambda) {
    double value = 0.0;
    double derivative = 0.0;
    for (const DirectionalTerm& term : terms) {
      const double denom = 1.0 + lambda * term.s;
      const double c = double(term.count);
      const double inv = 1.0 / denom;
      value += c * (term.s * inv + term.d * term.d * inv * inv);
      derivative -= c * (term.s * term.s * inv * inv +
                         2.0 * term.d * term.d * term.s * inv * inv * inv);
    }
    return std::pair<double, double>(value, derivative);
  };

  // Bracket the root.
  const double lambda_min = -1.0 / s_max;
  double lo, hi;
  const double at_zero = lhs_and_derivative(0.0).first;
  if (at_zero == target) return 0.0;
  if (at_zero > target) {
    // Root is positive: expand hi until LHS < target.
    lo = 0.0;
    hi = 1.0 / s_max;
    for (int iter = 0; iter < 200 && lhs_and_derivative(hi).first > target;
         ++iter) {
      hi *= 2.0;
    }
    if (lhs_and_derivative(hi).first > target) {
      return Status::NumericalError("failed to bracket spread multiplier");
    }
  } else {
    // Root is negative: approach the pole from the right.
    hi = 0.0;
    double step = 0.5 * (-lambda_min);
    lo = lambda_min + step;
    for (int iter = 0; iter < 200 && lhs_and_derivative(lo).first < target;
         ++iter) {
      step *= 0.5;
      lo = lambda_min + step;
    }
    if (lhs_and_derivative(lo).first < target) {
      return Status::NumericalError("failed to bracket spread multiplier");
    }
  }

  // Safeguarded Newton within [lo, hi].
  double lambda = 0.5 * (lo + hi);
  for (int iter = 0; iter < max_iterations; ++iter) {
    const auto [value, derivative] = lhs_and_derivative(lambda);
    const double residual = value - target;
    if (std::fabs(residual) <=
        tolerance * std::max(1.0, std::fabs(target))) {
      return lambda;
    }
    if (residual > 0.0) {
      lo = lambda;  // LHS too big -> root is to the right
    } else {
      hi = lambda;
    }
    double next = lambda;
    if (derivative < 0.0) {
      next = lambda - residual / derivative;
    }
    if (!(next > lo && next < hi)) {
      next = 0.5 * (lo + hi);  // bisection fallback
    }
    if (next == lambda) {
      return lambda;  // interval exhausted at machine precision
    }
    lambda = next;
  }
  return lambda;  // best effort after max iterations; residual is tiny
}

}  // namespace sisd::model
