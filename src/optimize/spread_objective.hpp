/// \file spread_objective.hpp
/// \brief The spread-pattern objective: IC of the directional variance as a
/// function of the unit direction `w` (paper Eq. 21), with analytic gradient.
///
/// For a fixed subgroup extension `I`, the Description Length is constant,
/// so maximizing SI equals maximizing the Information Content
///   IC(w) = -log p_{g_I^w}( w' S w )
/// where `S` is the subgroup's empirical scatter and the density is the
/// Zhang surrogate fitted to the model coefficients `a_g = w'Sigma_g w/|I|`.
/// The paper's authors "computed the gradient analytically (details
/// omitted)"; the full derivation lives here (see docs/ARCHITECTURE.md,
/// "Deviations from the paper") and is verified against finite
/// differences in tests/optimize/.

#ifndef SISD_OPTIMIZE_SPREAD_OBJECTIVE_HPP_
#define SISD_OPTIMIZE_SPREAD_OBJECTIVE_HPP_

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "model/background_model.hpp"
#include "pattern/extension.hpp"

namespace sisd::optimize {

/// \brief Evaluates IC(w) and its Euclidean gradient for a fixed subgroup.
class SpreadObjective {
 public:
  /// Builds the objective for subgroup `extension` with target data `y`
  /// under `model`. Precomputes the subgroup scatter matrix and snapshots
  /// the per-group covariances (the model must outlive the objective only
  /// if `RebindModel` is used; parameters are copied).
  SpreadObjective(const model::BackgroundModel& model,
                  const pattern::Extension& extension,
                  const linalg::Matrix& y);

  /// Dimensionality of the direction vector.
  size_t dim() const { return scatter_.rows(); }

  /// Number of rows in the subgroup.
  size_t subgroup_size() const { return size_; }

  /// The subgroup's empirical scatter matrix (around its empirical mean).
  const linalg::Matrix& scatter() const { return scatter_; }

  /// Mixture covariance `sum_i Sigma_i / |I|` over the subgroup (used to
  /// seed the optimizer with extreme variance-ratio directions).
  const linalg::Matrix& mixture_covariance() const { return mixture_cov_; }

  /// IC at unit direction `w`.
  double Value(const linalg::Vector& w) const;

  /// IC and Euclidean gradient at unit direction `w`.
  double ValueAndGradient(const linalg::Vector& w,
                          linalg::Vector* gradient) const;

  /// Observed directional variance `w' S w` (Eq. 2 statistic).
  double ObservedVariance(const linalg::Vector& w) const;

  /// Builds a reduced objective over the target coordinates in `coords`
  /// (for the 2-sparsity sweep of §III-C).
  SpreadObjective Restricted(const std::vector<size_t>& coords) const;

 private:
  struct GroupTerm {
    linalg::Matrix sigma;
    double count = 0.0;
  };

  SpreadObjective() = default;

  /// Shared implementation; `gradient` may be null.
  double Evaluate(const linalg::Vector& w, linalg::Vector* gradient) const;

  std::vector<GroupTerm> groups_;
  linalg::Matrix scatter_;
  linalg::Matrix mixture_cov_;
  double size_ = 0.0;
};

}  // namespace sisd::optimize

#endif  // SISD_OPTIMIZE_SPREAD_OBJECTIVE_HPP_
