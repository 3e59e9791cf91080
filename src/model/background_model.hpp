/// \file background_model.hpp
/// \brief The FORSIED background distribution over the target matrix
/// (paper §II-B).
///
/// The user's belief state is a product of independent multivariate normal
/// distributions, one per data row:
///   p_t(Y) = prod_i N(y_i; mu_i^t, Sigma_i^t).
/// Initially (MaxEnt subject to mean/covariance expectations) all rows share
/// one (mu, Sigma). Assimilating a pattern is a minimal-KL update that keeps
/// the parametric form and only changes parameters of rows in the pattern's
/// extension (Theorems 1 and 2).
///
/// Rows that have been subjected to the same sequence of updates share
/// parameters (the paper's footnote 2), so the model stores a small set of
/// parameter *groups* plus a row->group map; group count grows only when an
/// update splits an existing group.

#ifndef SISD_MODEL_BACKGROUND_MODEL_HPP_
#define SISD_MODEL_BACKGROUND_MODEL_HPP_

#include <vector>

#include "common/status.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "pattern/extension.hpp"

namespace sisd::model {

/// \brief Parameters shared by a set of rows (one cell of the tiling).
struct ParameterGroup {
  linalg::Vector mu;      ///< mean
  linalg::Matrix sigma;   ///< covariance (SPD)
  pattern::Extension rows{0};  ///< rows carrying these parameters

  /// Number of rows in the group.
  size_t count() const { return rows.count(); }
};

/// \brief Marginal distribution of the subgroup-mean statistic
/// `f_I(Y) = sum_{i in I} y_i / |I|` under the background model.
///
/// For independent rows this is `N(mean, cov)` with
/// `mean = sum mu_i / |I|` and `cov = sum Sigma_i / |I|^2` (see
/// docs/ARCHITECTURE.md, "Deviations from the paper", on the Eq. 13 typo).
struct MeanStatisticMarginal {
  linalg::Vector mean;
  linalg::Matrix cov;
};

/// \brief Per-group term of the directional-variance statistic's law.
///
/// Under the model (anchored at the pattern's empirical mean `yhat_I`), the
/// statistic `g^w_I(Y)` is a weighted sum of noncentral chi-squares; the IC
/// computation needs, per group g intersecting I:
///   s = w' Sigma_g w   (variance along w),
///   d = w' (yhat_I - mu_g) (mean offset along w),
///   count = |g intersect I|.
struct DirectionalTerm {
  double s = 0.0;
  double d = 0.0;
  size_t count = 0;
};

/// \brief The evolving background distribution p_t.
class BackgroundModel {
 public:
  /// Initial MaxEnt model: all `num_rows` rows are `N(mu, sigma)`.
  /// Fails when dimensions disagree, an entry is not finite, `sigma` is not
  /// bitwise symmetric (InvalidArgument) or not SPD (NumericalError).
  static Result<BackgroundModel> Create(size_t num_rows, linalg::Vector mu,
                                        linalg::Matrix sigma);

  /// Initial model from the empirical mean and covariance of `y`
  /// (the setup used in all of the paper's experiments). A small ridge
  /// (`ridge` times the average diagonal) keeps the covariance SPD when the
  /// data matrix is rank-deficient, as with the 124 binary mammal targets.
  static Result<BackgroundModel> CreateFromData(const linalg::Matrix& y,
                                                double ridge = 1e-8);

  /// Builds a model from explicit parameter groups (tests build multi-group
  /// models this way). The groups' row sets must partition
  /// `[0, num_rows)`, every mean and covariance entry must be finite, and
  /// every covariance must be bitwise symmetric and factorize;
  /// InvalidArgument otherwise. Each group's factor is computed from its
  /// covariance, exactly as a live model computes it.
  static Result<BackgroundModel> RestoreFromParts(
      size_t num_rows, size_t dim, std::vector<ParameterGroup> groups);

  /// Number of rows modeled.
  size_t num_rows() const { return num_rows_; }

  /// Target dimensionality dy.
  size_t dim() const { return dim_; }

  /// Number of parameter groups currently distinguished.
  size_t num_groups() const { return groups_.size(); }

  /// Group index of a row.
  size_t GroupOf(size_t row) const {
    SISD_DCHECK(row < num_rows_);
    return group_of_row_[row];
  }

  /// Row -> group map (one entry per row; the evaluation engine precomputes
  /// per-row group ids from this).
  const std::vector<uint32_t>& GroupOfRows() const { return group_of_row_; }

  /// Group by index.
  const ParameterGroup& group(size_t g) const {
    SISD_DCHECK(g < groups_.size());
    return groups_[g];
  }

  /// Mean parameter of a row.
  const linalg::Vector& MeanOf(size_t row) const {
    return groups_[GroupOf(row)].mu;
  }

  /// Covariance parameter of a row.
  const linalg::Matrix& CovarianceOf(size_t row) const {
    return groups_[GroupOf(row)].sigma;
  }

  /// Natural parameters of a row: `theta1 = Sigma^{-1} mu` and
  /// `theta2 = -0.5 * Sigma^{-1}` (the representation the paper recommends
  /// maintaining; exposed for tests and diagnostics).
  linalg::Vector NaturalTheta1(size_t row) const;
  linalg::Matrix NaturalTheta2(size_t row) const;

  /// Cholesky factorization of group `g`'s covariance: always
  /// `Cholesky::Compute(group(g).sigma)` bit for bit, because every path
  /// that sets a covariance factorizes it on the spot.
  const linalg::Cholesky& GroupCholesky(size_t g) const {
    SISD_DCHECK(g < group_chol_.size());
    return group_chol_[g];
  }

  /// Log-determinant of group `g`'s covariance.
  double GroupLogDetSigma(size_t g) const;

  /// Number of rows of each group inside `extension`
  /// (vector indexed by group id).
  std::vector<size_t> GroupCounts(const pattern::Extension& extension) const;

  /// Allocation-free variant: writes the per-group counts into `*out`
  /// (resized to `num_groups()` if needed).
  void GroupCountsInto(const pattern::Extension& extension,
                       std::vector<size_t>* out) const;

  /// Per-group counts of the *virtual* extension `a & b`, computed with a
  /// fused masked popcount (nothing materialized).
  void GroupCountsMaskedInto(const pattern::Extension& a,
                             const pattern::Extension& b,
                             std::vector<size_t>* out) const;

  /// Marginal law of the subgroup-mean statistic for `extension`.
  MeanStatisticMarginal MeanStatMarginal(
      const pattern::Extension& extension) const;

  /// Marginal law from precomputed per-group counts (`counts[g]` rows of
  /// group `g`; `size` = their sum, > 0), written into caller storage
  /// (reused when already `dim()`-sized, so the evaluation engine scores
  /// without allocating). The single implementation behind
  /// `MeanStatMarginal`, so both paths are bit-identical by construction.
  void MeanStatMarginalInto(const std::vector<size_t>& counts, double size,
                            linalg::Vector* mean, linalg::Matrix* cov) const;

  /// Per-group terms of the directional-variance law for `extension`,
  /// direction `w` (unit), anchored at `anchor` (the empirical mean).
  std::vector<DirectionalTerm> DirectionalTerms(
      const pattern::Extension& extension, const linalg::Vector& w,
      const linalg::Vector& anchor) const;

  /// \brief Theorem 1: minimal-KL update so that the expected subgroup mean
  /// of `extension` equals `target_mean`.
  ///
  /// Solves `lambda = SigmaBar_I^{-1} (target_mean - muBar_I)` and sets
  /// `mu_i += Sigma_i lambda` for rows in the extension. Covariances are
  /// unchanged. Returns the KKT multiplier norm (0 means it was a no-op).
  Result<double> UpdateLocation(const pattern::Extension& extension,
                                const linalg::Vector& target_mean);

  /// \brief Theorem 2: minimal-KL update so that the expected directional
  /// variance of `extension` along `w` (anchored at `anchor`) equals
  /// `target_variance`.
  ///
  /// Finds the unique root `lambda` of Eq. (12) and applies the rank-1
  /// updates of Eqs. (10)-(11), refactorizing each touched group's new
  /// covariance. Returns the multiplier `lambda`. When some updated
  /// covariance does not factorize numerically, returns NumericalError and
  /// leaves every group's parameters unchanged (the groups may be split).
  Result<double> UpdateSpread(const pattern::Extension& extension,
                              const linalg::Vector& w,
                              const linalg::Vector& anchor,
                              double target_variance);

  /// Log density of a full data matrix under the model (test utility).
  double LogDensity(const linalg::Matrix& y) const;

  /// Row-wise KL divergence `sum_i KL(this_i || other_i)`; models must have
  /// identical shape. Used to check coordinate-descent convergence.
  double KlDivergenceFrom(const BackgroundModel& other) const;

  /// Largest absolute parameter difference vs `other` (mu and Sigma entries).
  double MaxParameterDelta(const BackgroundModel& other) const;

  /// Expected value of the subgroup-mean statistic (convenience).
  linalg::Vector ExpectedSubgroupMean(
      const pattern::Extension& extension) const;

  /// Expected value of the directional-variance statistic (convenience):
  /// `E[g^w_I] = sum_i (s_i + d_i^2) / |I|`.
  double ExpectedDirectionalVariance(const pattern::Extension& extension,
                                     const linalg::Vector& w,
                                     const linalg::Vector& anchor) const;

 private:
  BackgroundModel() = default;

  /// Ensures every group is fully inside or fully outside `extension`,
  /// splitting groups as needed; returns ids of groups inside.
  std::vector<size_t> SplitGroupsFor(const pattern::Extension& extension);

  size_t num_rows_ = 0;
  size_t dim_ = 0;
  std::vector<ParameterGroup> groups_;
  std::vector<uint32_t> group_of_row_;
  /// `group_chol_[g]` factorizes `groups_[g].sigma`.
  std::vector<linalg::Cholesky> group_chol_;
};

/// \brief Root of Eq. (12): finds `lambda` such that
/// `sum_g count_g * [ s_g/(1+lambda s_g) + (d_g/(1+lambda s_g))^2 ]
///    = total_count * target_variance`.
///
/// The left side is strictly decreasing on `(-1/max_g s_g, +inf)` and spans
/// `(0, +inf)`, so a unique root exists for any positive right side. Exposed
/// for direct testing. Uses safeguarded Newton iterations.
Result<double> SolveSpreadLambda(const std::vector<DirectionalTerm>& terms,
                                 double target_variance,
                                 double tolerance = 1e-12,
                                 int max_iterations = 200);

}  // namespace sisd::model

#endif  // SISD_MODEL_BACKGROUND_MODEL_HPP_
