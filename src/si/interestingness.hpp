/// \file interestingness.hpp
/// \brief Subjective Interestingness: Information Content and Description
/// Length of location and spread patterns (paper §II-C).
///
/// `SI = IC / DL` where IC is the negative log probability (density) of the
/// observed pattern statistic under the current background distribution and
/// `DL = gamma*|C| + eta` (+1 for spread patterns). The absolute SI value is
/// irrelevant; only the induced ranking matters (paper Remark 1), and the
/// paper fixes `eta = 1`, `gamma = 0.1`.

#ifndef SISD_SI_INTERESTINGNESS_HPP_
#define SISD_SI_INTERESTINGNESS_HPP_

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "model/background_model.hpp"
#include "pattern/extension.hpp"
#include "stats/chi2_mixture.hpp"

namespace sisd::si {

/// \brief Description-length parameters (paper Remark 1 defaults).
struct DescriptionLengthParams {
  double gamma = 0.1;  ///< cost per condition in the intention
  double eta = 1.0;    ///< fixed cost of presenting a pattern
};

/// \brief DL of a location pattern with `num_conditions` conditions.
double LocationDescriptionLength(size_t num_conditions,
                                 const DescriptionLengthParams& params);

/// \brief DL of a spread pattern: one extra term for the direction.
double SpreadDescriptionLength(size_t num_conditions,
                               const DescriptionLengthParams& params);

/// \brief Scored location pattern statistics.
struct LocationScore {
  double ic = 0.0;  ///< Eq. (13)
  double dl = 0.0;
  double si = 0.0;  ///< Eq. (14)
};

/// \brief Scored spread pattern statistics.
struct SpreadScore {
  double ic = 0.0;  ///< Eq. (19)
  double dl = 0.0;
  double si = 0.0;  ///< Eq. (20)
  stats::Chi2MixtureApprox approx;  ///< the fitted surrogate (diagnostics)
};

/// \brief IC of a location pattern: negative log density of the observed
/// subgroup mean under the model's marginal for the mean statistic.
///
/// `IC = 0.5*log((2 pi)^dy |Sigma_I|)
///       + 0.5*(fhat - mu_I)' Sigma_I^{-1} (fhat - mu_I)`
/// with `mu_I = sum mu_i/|I|`, `Sigma_I = sum Sigma_i/|I|^2`.
/// A fast path covers extensions inside a single parameter group (always the
/// case in the first iteration), reusing the group's factorization.
double LocationIC(const model::BackgroundModel& model,
                  const pattern::Extension& extension,
                  const linalg::Vector& empirical_mean);

/// \brief Scores a location pattern (IC, DL, SI).
LocationScore ScoreLocation(const model::BackgroundModel& model,
                            const pattern::Extension& extension,
                            const linalg::Vector& empirical_mean,
                            size_t num_conditions,
                            const DescriptionLengthParams& params);

/// \brief IC of a spread pattern along unit `w`, with observed variance
/// `empirical_variance`; +inf below the surrogate's support edge.
///
/// Under the model the statistic is a weighted sum of chi-square(1)
/// variables with weights `a_i = w' Sigma_i w / |I|`; the density is
/// approximated by Zhang's `alpha*chi2(m)+beta` surrogate (Eq. 18). Per the
/// paper's footnote 3, the central approximation is used even when the
/// model's means do not coincide with the anchor (overlapping patterns).
double SpreadIC(const model::BackgroundModel& model,
                const pattern::Extension& extension, const linalg::Vector& w,
                double empirical_variance);

/// \brief Scores a spread pattern (IC, DL, SI).
SpreadScore ScoreSpread(const model::BackgroundModel& model,
                        const pattern::Extension& extension,
                        const linalg::Vector& w, double empirical_variance,
                        size_t num_conditions,
                        const DescriptionLengthParams& params);

/// \brief Fits the Zhang surrogate for the spread statistic of `extension`
/// along `w` under `model` (exposed for the optimizer and diagnostics).
stats::Chi2MixtureApprox FitSpreadSurrogate(
    const model::BackgroundModel& model, const pattern::Extension& extension,
    const linalg::Vector& w);

/// \brief Per-target-attribute IC of a location pattern: entry `t` is the
/// IC of the pattern restricted to target dimension `t` alone (the
/// univariate marginal of the subgroup-mean statistic).
///
/// This is the ranking the paper uses to explain patterns to the user:
/// "the most surprising species as ranked by SI" (Fig. 5), "the y-axis is
/// ranked by SI" (Fig. 8a). Note the paper's caveat applies: correlated
/// targets share information, so these per-attribute ICs do not add up to
/// the joint IC (Eq. 13 accounts for the covariance; this ranking does
/// not).
linalg::Vector PerAttributeLocationIC(const model::BackgroundModel& model,
                                      const pattern::Extension& extension,
                                      const linalg::Vector& empirical_mean);

/// \brief Indices of the target attributes sorted by decreasing
/// per-attribute IC (ties broken by index).
std::vector<size_t> RankAttributesByIC(const model::BackgroundModel& model,
                                       const pattern::Extension& extension,
                                       const linalg::Vector& empirical_mean);

}  // namespace sisd::si

#endif  // SISD_SI_INTERESTINGNESS_HPP_
