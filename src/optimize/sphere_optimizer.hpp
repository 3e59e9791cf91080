/// \file sphere_optimizer.hpp
/// \brief Riemannian gradient ascent on the unit sphere — the standalone
/// replacement for the paper's use of the Manopt MATLAB toolbox (§II-D).
///
/// The Riemannian gradient of a function restricted to the sphere is the
/// Euclidean gradient projected onto the tangent space at `w`
/// (`(Id - w w') grad`); the retraction is renormalization. Steps use Armijo
/// backtracking, and the search is multi-started from the extreme
/// variance-ratio directions plus random unit vectors, because the paper
/// notes the problem "can have many local optima".

#ifndef SISD_OPTIMIZE_SPHERE_OPTIMIZER_HPP_
#define SISD_OPTIMIZE_SPHERE_OPTIMIZER_HPP_

#include <cstdint>
#include <vector>

#include "linalg/vector.hpp"
#include "optimize/spread_objective.hpp"
#include "random/rng.hpp"

namespace sisd::optimize {

/// \brief Optimizer settings.
struct SphereOptimizerConfig {
  int max_iterations = 300;        ///< ascent steps per start
  int max_backtracks = 40;         ///< Armijo halvings per step
  double gradient_tolerance = 1e-9;  ///< stop when |Riemannian grad| small
  double armijo_c1 = 1e-4;         ///< sufficient-increase constant
  double initial_step = 1.0;       ///< first trial step size
  int num_random_starts = 4;       ///< random restarts on top of seeded ones
  uint64_t seed = 13;              ///< RNG seed for the random starts
};

/// \brief Result of one optimization run.
struct SphereOptimum {
  linalg::Vector direction;  ///< best unit vector found
  double value = 0.0;        ///< objective value at `direction`
  int iterations = 0;        ///< total ascent iterations across starts
  int starts = 0;            ///< number of starts tried
};

/// \brief Maximizes `objective` over the unit sphere.
///
/// Start points: the top/bottom eigenvectors of the *whitened* subgroup
/// scatter (extreme observed-vs-expected variance-ratio directions, the
/// natural suspects for surprising spread), plus random unit vectors.
/// For 1-dimensional targets the answer is trivially `w = (1)`. `value` is
/// -inf when no start is feasible (`SpreadObjective::Value`).
SphereOptimum MaximizeOnSphere(const SpreadObjective& objective,
                               const SphereOptimizerConfig& config);

/// \brief Maximizes the objective under a 2-sparsity constraint by sweeping
/// all coordinate pairs (paper §III-C): for each pair of target dimensions,
/// the restricted 2-d problem is solved on the circle (dense angular grid +
/// golden-section refinement), and the best pair wins.
///
/// Returns the full-dimensional direction (zeros outside the chosen pair)
/// and fills `chosen_pair` when non-null.
SphereOptimum MaximizePairSparse(const SpreadObjective& objective,
                                 std::pair<size_t, size_t>* chosen_pair);

}  // namespace sisd::optimize

#endif  // SISD_OPTIMIZE_SPHERE_OPTIMIZER_HPP_
