/// \file chi2_mixture.hpp
/// \brief Zhang (JASA 2005) approximation of positively weighted sums of
/// independent chi-square(1) variables — Eq. (18) of the paper.
///
/// Under the background model (after assimilating the location pattern), the
/// directional variance statistic of a subgroup is
/// `g = sum_i a_i * c_i` with `c_i ~ chi2(1)` i.i.d. and coefficients
/// `a_i = w' Sigma_i w / |I| > 0`. Zhang's three-cumulant matching
/// approximates `g ≈ alpha * chi2(m) + beta` with
///   alpha = A3 / A2,
///   beta  = A1 - A2^2 / A3,
///   m     = A2^3 / A3^2,
/// where `A_k = sum_i a_i^k`. When all coefficients are equal the
/// approximation is exact (`alpha = a`, `beta = 0`, `m = |I|`).

#ifndef SISD_STATS_CHI2_MIXTURE_HPP_
#define SISD_STATS_CHI2_MIXTURE_HPP_

#include <cstddef>
#include <vector>

namespace sisd::stats {

/// \brief The fitted affine-chi-square surrogate `alpha * chi2(m) + beta`.
struct Chi2MixtureApprox {
  double alpha = 0.0;  ///< scale (> 0 for valid coefficient sets)
  double beta = 0.0;   ///< shift
  double m = 0.0;      ///< (real-valued) degrees of freedom

  /// Power sums of the coefficients, kept for gradient computations.
  double a1 = 0.0;  ///< sum a_i
  double a2 = 0.0;  ///< sum a_i^2
  double a3 = 0.0;  ///< sum a_i^3

  /// Mean of the surrogate distribution (`alpha*m + beta` = A1 exactly).
  double MeanValue() const { return alpha * m + beta; }

  /// Variance of the surrogate (`2*alpha^2*m` = 2*A2 exactly).
  double VarianceValue() const { return 2.0 * alpha * alpha * m; }

  /// Third central moment of the surrogate (`8*alpha^3*m` = 8*A3 exactly).
  double ThirdCentralMoment() const { return 8.0 * alpha * alpha * alpha * m; }

  /// Negative log density of the surrogate at `g`.
  ///
  /// This is the spread-pattern Information Content (Eq. 19) up to the
  /// pattern bookkeeping. Returns +inf when `g <= beta` (outside support).
  /// Note the paper prints "+ alpha" where the affine change of variables
  /// actually contributes "+ log(alpha)"; we implement the correct form
  /// (see docs/ARCHITECTURE.md, "Deviations from the paper").
  double NegLogPdf(double g) const;

  /// Log density (`-NegLogPdf`), -inf outside support.
  double LogPdf(double g) const;

  /// CDF of the surrogate at `g` via the regularized incomplete gamma.
  double Cdf(double g) const;
};

/// \brief Fits the Zhang surrogate to positive coefficients `a`.
///
/// All coefficients must be strictly positive and the vector non-empty;
/// this holds by construction for `a_i = w' Sigma_i w / |I|` with SPD
/// `Sigma_i` and unit `w`.
Chi2MixtureApprox FitChi2Mixture(const std::vector<double>& a);

/// \brief Fits the surrogate directly from precomputed power sums.
Chi2MixtureApprox FitChi2MixtureFromPowerSums(double a1, double a2, double a3);

}  // namespace sisd::stats

#endif  // SISD_STATS_CHI2_MIXTURE_HPP_
