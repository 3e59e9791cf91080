#include "stats/chi2_mixture.hpp"

#include <cmath>
#include <limits>

#include "common/status.hpp"
#include "stats/special.hpp"

namespace sisd::stats {

bool Chi2MixtureApprox::InSupport(double g) const {
  return (g - beta) / alpha >= kSupportEdge;
}

double Chi2MixtureApprox::NegLogPdf(double g, Partials* partials) const {
  SISD_DCHECK(alpha > 0.0 && m > 0.0);
  if (!InSupport(g)) return std::numeric_limits<double>::infinity();
  const double u = (g - beta) / alpha;
  // -log pdf of alpha*chi2(m)+beta at g:
  //   log(alpha) + log(2^{m/2} Gamma(m/2))
  //   - (m/2 - 1) log((g-beta)/alpha) + (g-beta)/(2 alpha).
  const double half_m = 0.5 * m;
  const double ic = std::log(alpha) + half_m * std::log(2.0) +
                    LogGamma(half_m) - (half_m - 1.0) * std::log(u) +
                    0.5 * u;
  if (partials == nullptr) return ic;

  // dIC/du, and partials w.r.t. (g, alpha, beta, m), chained through
  // alpha = A3/A2, beta = A1 - A2^2/A3 and m = A2^3/A3^2.
  const double dic_du = -(half_m - 1.0) / u + 0.5;
  const double dic_dbeta = -dic_du / alpha;
  const double dic_dalpha = 1.0 / alpha + dic_du * (-u / alpha);
  const double dic_dm =
      0.5 * std::log(2.0) + 0.5 * Digamma(half_m) - 0.5 * std::log(u);
  partials->g = dic_du / alpha;
  partials->a1 = dic_dbeta;
  partials->a2 = dic_dalpha * (-a3 / (a2 * a2)) +
                 dic_dbeta * (-2.0 * a2 / a3) +
                 dic_dm * (3.0 * a2 * a2 / (a3 * a3));
  partials->a3 = dic_dalpha * (1.0 / a2) + dic_dbeta * ((a2 / a3) * (a2 / a3)) +
                 dic_dm * (-2.0 * (a2 * a2 * a2) / (a3 * a3 * a3));
  return ic;
}

double Chi2MixtureApprox::Cdf(double g) const {
  SISD_DCHECK(alpha > 0.0 && m > 0.0);
  const double standardized = (g - beta) / alpha;
  if (standardized <= 0.0) return 0.0;
  return ChiSquareCdf(standardized, m);
}

Chi2MixtureApprox FitChi2Mixture(const std::vector<double>& a) {
  SISD_CHECK(!a.empty());
  double a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (double ai : a) {
    SISD_CHECK(ai > 0.0);
    a1 += ai;
    a2 += ai * ai;
    a3 += ai * ai * ai;
  }
  return FitChi2MixtureFromPowerSums(a1, a2, a3);
}

Chi2MixtureApprox FitChi2MixtureFromPowerSums(double a1, double a2,
                                              double a3) {
  SISD_CHECK(a1 > 0.0 && a2 > 0.0 && a3 > 0.0);
  Chi2MixtureApprox out;
  out.a1 = a1;
  out.a2 = a2;
  out.a3 = a3;
  out.alpha = a3 / a2;
  out.beta = a1 - a2 * a2 / a3;
  out.m = (a2 * a2 * a2) / (a3 * a3);
  return out;
}

}  // namespace sisd::stats
