#include "optimize/sphere_optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"

namespace sisd::optimize {

namespace {

/// One gradient-ascent run from `start`; returns the local optimum.
SphereOptimum AscendFrom(const SpreadObjective& objective,
                         const SphereOptimizerConfig& config,
                         linalg::Vector start) {
  SphereOptimum out;
  linalg::Vector w = start.Normalized();
  linalg::Vector gradient(w.size());
  double value = objective.ValueAndGradient(w, &gradient);
  // An infeasible start (value -inf) is not ascended from; it never wins.
  for (int iter = 0; iter < config.max_iterations && std::isfinite(value);
       ++iter) {
    // Riemannian gradient: project onto the tangent space at w.
    linalg::Vector riemannian = gradient;
    riemannian.AddScaled(w, -gradient.Dot(w));
    const double grad_norm = riemannian.Norm();
    if (grad_norm < config.gradient_tolerance) break;

    double step = config.initial_step;
    bool improved = false;
    for (int bt = 0; bt < config.max_backtracks; ++bt) {
      linalg::Vector trial = w;
      trial.AddScaled(riemannian, step);
      const double trial_norm = trial.Norm();
      if (trial_norm > 1e-12) {
        trial /= trial_norm;
        const double trial_value = objective.Value(trial);
        if (trial_value >=
            value + config.armijo_c1 * step * grad_norm * grad_norm) {
          w = std::move(trial);
          value = objective.ValueAndGradient(w, &gradient);
          improved = true;
          break;
        }
      }
      step *= 0.5;
    }
    ++out.iterations;
    if (!improved) break;
  }
  out.direction = std::move(w);
  out.value = value;
  return out;
}

/// Whitened-scatter eigenvector starts: directions extremizing the ratio of
/// observed to expected variance, i.e. generalized eigenvectors of
/// (scatter, mixture covariance).
std::vector<linalg::Vector> SeedDirections(const SpreadObjective& objective) {
  std::vector<linalg::Vector> seeds;
  const size_t d = objective.dim();
  Result<linalg::Cholesky> chol =
      linalg::Cholesky::Compute(objective.mixture_covariance());
  if (chol.ok()) {
    // B = L^{-1} S L^{-T}; eigenvectors u of B map to w = L^{-T} u.
    const linalg::Matrix& l = chol.Value().L();
    linalg::Matrix b(d, d);
    // Compute L^{-1} S first (solve L X = S column-wise).
    linalg::Matrix linv_s(d, d);
    for (size_t c = 0; c < d; ++c) {
      linalg::Vector col = objective.scatter().Col(c);
      linalg::Vector sol = chol.Value().ForwardSolve(col);
      for (size_t r = 0; r < d; ++r) linv_s(r, c) = sol[r];
    }
    // Then B' = L^{-1} (L^{-1} S)' => B = L^{-1} S L^{-T} (symmetric).
    linalg::Matrix linv_s_t = linv_s.Transposed();
    for (size_t c = 0; c < d; ++c) {
      linalg::Vector col = linv_s_t.Col(c);
      linalg::Vector sol = chol.Value().ForwardSolve(col);
      for (size_t r = 0; r < d; ++r) b(r, c) = sol[r];
    }
    b.Symmetrize();
    Result<linalg::EigenDecomposition> eig = linalg::SymmetricEigen(b);
    if (eig.ok()) {
      // Back-substitute through L' and normalize: top and bottom directions.
      auto back = [&](const linalg::Vector& u) {
        // Solve L' w = u.
        linalg::Vector w(d);
        for (size_t ii = d; ii-- > 0;) {
          double acc = u[ii];
          for (size_t k = ii + 1; k < d; ++k) acc -= l(k, ii) * w[k];
          w[ii] = acc / l(ii, ii);
        }
        return w.Normalized();
      };
      seeds.push_back(back(eig.Value().Eigenvector(0)));
      if (d > 1) {
        seeds.push_back(back(eig.Value().Eigenvector(d - 1)));
      }
    }
  }
  if (seeds.empty()) {
    // Fall back to raw scatter eigenvectors.
    Result<linalg::EigenDecomposition> eig =
        linalg::SymmetricEigen(objective.scatter());
    if (eig.ok()) {
      seeds.push_back(eig.Value().Eigenvector(0).Normalized());
      if (d > 1) {
        seeds.push_back(eig.Value().Eigenvector(d - 1).Normalized());
      }
    }
  }
  return seeds;
}

}  // namespace

SphereOptimum MaximizeOnSphere(const SpreadObjective& objective,
                               const SphereOptimizerConfig& config) {
  const size_t d = objective.dim();
  SISD_CHECK(d >= 1);
  if (d == 1) {
    SphereOptimum out;
    out.direction = linalg::Vector{1.0};
    out.value = objective.Value(out.direction);
    out.starts = 1;
    return out;
  }

  std::vector<linalg::Vector> starts = SeedDirections(objective);
  random::Rng rng(config.seed);
  for (int r = 0; r < config.num_random_starts; ++r) {
    starts.push_back(rng.UnitSphere(d));
  }

  SphereOptimum best;
  best.value = -std::numeric_limits<double>::infinity();
  for (linalg::Vector& start : starts) {
    SphereOptimum candidate = AscendFrom(objective, config, std::move(start));
    best.iterations += candidate.iterations;
    ++best.starts;
    if (candidate.value > best.value) {
      best.value = candidate.value;
      best.direction = std::move(candidate.direction);
    }
  }
  return best;
}

SphereOptimum MaximizePairSparse(const SpreadObjective& objective,
                                 std::pair<size_t, size_t>* chosen_pair) {
  const size_t d = objective.dim();
  SISD_CHECK(d >= 2);
  SphereOptimum best;
  best.value = -std::numeric_limits<double>::infinity();
  std::pair<size_t, size_t> best_pair{0, 1};

  for (size_t j = 0; j < d; ++j) {
    for (size_t k = j + 1; k < d; ++k) {
      SpreadObjective reduced = objective.Restricted({j, k});
      // Dense angular scan over the half-circle (w and -w are equivalent).
      const int kGrid = 256;
      double best_theta = 0.0;
      double best_value = -std::numeric_limits<double>::infinity();
      for (int t = 0; t < kGrid; ++t) {
        const double theta = M_PI * double(t) / double(kGrid);
        const linalg::Vector w{std::cos(theta), std::sin(theta)};
        const double value = reduced.Value(w);
        if (value > best_value) {
          best_value = value;
          best_theta = theta;
        }
      }
      // Golden-section refinement around the best grid cell.
      const double kGolden = 0.6180339887498949;
      double lo = best_theta - M_PI / kGrid;
      double hi = best_theta + M_PI / kGrid;
      auto value_at = [&reduced](double theta) {
        return reduced.Value(
            linalg::Vector{std::cos(theta), std::sin(theta)});
      };
      double x1 = hi - kGolden * (hi - lo);
      double x2 = lo + kGolden * (hi - lo);
      double f1 = value_at(x1);
      double f2 = value_at(x2);
      for (int it = 0; it < 60; ++it) {
        if (f1 < f2) {
          lo = x1;
          x1 = x2;
          f1 = f2;
          x2 = lo + kGolden * (hi - lo);
          f2 = value_at(x2);
        } else {
          hi = x2;
          x2 = x1;
          f2 = f1;
          x1 = hi - kGolden * (hi - lo);
          f1 = value_at(x1);
        }
      }
      const double theta = 0.5 * (lo + hi);
      const double value = value_at(theta);
      if (value > best.value) {
        best.value = value;
        best_pair = {j, k};
        linalg::Vector w(d);
        w[j] = std::cos(theta);
        w[k] = std::sin(theta);
        best.direction = std::move(w);
      }
      ++best.starts;
    }
  }
  if (chosen_pair != nullptr) *chosen_pair = best_pair;
  return best;
}

}  // namespace sisd::optimize
