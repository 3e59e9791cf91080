/// \file assimilator.hpp
/// \brief Maintains the set of assimilated patterns and re-fits the
/// background distribution by cyclic coordinate descent (paper §II-B,
/// "Accounting for a set of location and spread patterns").
///
/// Each pattern contributes one expectation constraint; the KL projection
/// onto a single constraint is exact (Theorems 1-2), and cycling the exact
/// projections converges to the joint minimum-KL distribution because the
/// problem is convex. With non-overlapping extensions one sweep suffices;
/// with overlaps a few sweeps are needed (the convergence loop measures the
/// largest parameter change per sweep).

#ifndef SISD_MODEL_ASSIMILATOR_HPP_
#define SISD_MODEL_ASSIMILATOR_HPP_

#include <vector>

#include "common/status.hpp"
#include "model/background_model.hpp"
#include "pattern/extension.hpp"

namespace sisd::model {

/// \brief One assimilated pattern's constraint.
struct AssimilatedConstraint {
  enum class Kind { kLocation, kSpread };

  Kind kind = Kind::kLocation;
  pattern::Extension extension{0};
  /// Location: the constrained subgroup mean. Spread: the anchor `yhat_I`.
  linalg::Vector mean;
  /// Spread only: unit direction.
  linalg::Vector direction;
  /// Spread only: the constrained variance along `direction`.
  double variance = 0.0;
};

/// \brief Statistics of one `Refit` run (used by the Table II bench).
struct RefitStats {
  int sweeps = 0;               ///< sweeps executed
  double final_delta = 0.0;     ///< max parameter change in the last sweep
  bool converged = false;       ///< delta dropped below tolerance
};

/// \brief Owns a BackgroundModel plus the constraints assimilated into it.
class PatternAssimilator {
 public:
  /// Takes ownership of the initial (pattern-free) model.
  explicit PatternAssimilator(BackgroundModel model)
      : initial_model_(model), model_(std::move(model)) {}

  /// The current (fitted) background model.
  const BackgroundModel& model() const { return model_; }

  /// The pattern-free model the session started from (`RefitFromScratch`
  /// resets to this).
  const BackgroundModel& initial_model() const { return initial_model_; }

  /// Number of assimilated constraints.
  size_t num_constraints() const { return constraints_.size(); }

  /// The registered constraints in assimilation order.
  const std::vector<AssimilatedConstraint>& constraints() const {
    return constraints_;
  }

  /// Registers a location pattern and applies its projection once.
  Status AddLocationPattern(const pattern::Extension& extension,
                            const linalg::Vector& subgroup_mean);

  /// Registers a spread pattern and applies its projection once.
  Status AddSpreadPattern(const pattern::Extension& extension,
                          const linalg::Vector& direction,
                          const linalg::Vector& anchor, double variance);

  /// Cyclic coordinate descent over all constraints until the largest
  /// parameter change in a sweep drops below `tolerance` (or `max_sweeps`).
  Result<RefitStats> Refit(int max_sweeps = 100, double tolerance = 1e-9);

  /// Re-fits from the *initial* model (the paper's Table II measures this
  /// full refit cost as patterns accumulate).
  Result<RefitStats> RefitFromScratch(int max_sweeps = 100,
                                      double tolerance = 1e-9);

  /// Maximum violation of the registered constraints under the current
  /// model (diagnostic; ~0 after a converged refit).
  double MaxConstraintViolation() const;

 private:
  /// Applies one projection for constraint `c` onto the current model.
  Status ApplyConstraint(const AssimilatedConstraint& c);

  BackgroundModel initial_model_;
  BackgroundModel model_;
  std::vector<AssimilatedConstraint> constraints_;
};

}  // namespace sisd::model

#endif  // SISD_MODEL_ASSIMILATOR_HPP_
