// Ablation: accuracy of the Zhang (2005) chi-square-mixture surrogate used
// for the spread-pattern IC (Eq. 18-19), against Monte-Carlo ground truth.
//
// For coefficient profiles ranging from homogeneous (where the surrogate is
// exact) to strongly dominated (hardest case), we report the maximum CDF
// error over the body of the distribution and the relative error of the
// negative log density at three quantiles. This quantifies the systematic
// approximation error baked into every spread-pattern SI value. Edge
// profiles then evaluate the surrogate IC just above its shift beta, at
// u = (g - beta) / alpha from the support edge 1e-12 up to 1e-3, against
// the Monte Carlo density of the true mixture there.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "random/rng.hpp"
#include "stats/chi2_mixture.hpp"

namespace {

using namespace sisd;

struct Profile {
  const char* name;
  std::vector<double> coefficients;
};

double EmpiricalNegLogDensity(const std::vector<double>& draws, double x,
                              double half_window) {
  size_t hits = 0;
  for (double d : draws) {
    if (d >= x - half_window && d < x + half_window) ++hits;
  }
  const double density =
      double(hits) / double(draws.size()) / (2.0 * half_window);
  return -std::log(std::max(density, 1e-12));
}

}  // namespace

int main() {
  std::printf("=== Ablation: Zhang surrogate accuracy vs Monte Carlo ===\n\n");

  std::vector<Profile> profiles;
  profiles.push_back({"homogeneous (40 equal)", std::vector<double>(40, 0.5)});
  {
    std::vector<double> mild;
    for (int i = 0; i < 40; ++i) mild.push_back(0.3 + 0.02 * i);
    profiles.push_back({"mild heterogeneity", mild});
  }
  {
    std::vector<double> skewed;
    for (int i = 0; i < 40; ++i) skewed.push_back(0.1 + (i % 5 == 0 ? 1.0 : 0.0));
    profiles.push_back({"bimodal coefficients", skewed});
  }
  profiles.push_back({"one dominant of 8",
                      {2.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}});

  std::printf("%-24s %12s %14s %14s %14s\n", "profile", "max|dCDF|",
              "dIC@q25", "dIC@q50", "dIC@q90");
  random::Rng rng(321);
  std::vector<std::vector<double>> sorted_draws;
  for (const Profile& profile : profiles) {
    const stats::Chi2MixtureApprox approx =
        stats::FitChi2Mixture(profile.coefficients);
    const int kSamples = 120000;
    std::vector<double> draws(kSamples);
    for (int s = 0; s < kSamples; ++s) {
      double acc = 0.0;
      for (double a : profile.coefficients) {
        const double z = rng.Gaussian();
        acc += a * z * z;
      }
      draws[static_cast<size_t>(s)] = acc;
    }
    std::sort(draws.begin(), draws.end());

    double max_cdf_err = 0.0;
    for (int q = 5; q <= 95; q += 5) {
      const double x =
          draws[static_cast<size_t>(double(q) / 100.0 * (kSamples - 1))];
      max_cdf_err =
          std::max(max_cdf_err, std::fabs(approx.Cdf(x) - double(q) / 100.0));
    }
    double ic_err[3];
    const double quantiles[3] = {0.25, 0.5, 0.9};
    const double spread_scale =
        draws[static_cast<size_t>(0.75 * kSamples)] -
        draws[static_cast<size_t>(0.25 * kSamples)];
    for (int k = 0; k < 3; ++k) {
      const double x =
          draws[static_cast<size_t>(quantiles[k] * (kSamples - 1))];
      const double mc = EmpiricalNegLogDensity(draws, x, 0.05 * spread_scale);
      ic_err[k] = approx.NegLogPdf(x) - mc;
    }
    std::printf("%-24s %12.4f %+14.4f %+14.4f %+14.4f\n", profile.name,
                max_cdf_err, ic_err[0], ic_err[1], ic_err[2]);
    sorted_draws.push_back(std::move(draws));
  }

  std::printf(
      "\n=== Edge profiles: g = beta + u * alpha, just inside the support "
      "===\n\n");
  std::printf("%-24s %8s %10s %8s %14s %14s %8s %9s\n", "profile", "m",
              "u", "g", "IC surrogate", "IC MC", "MC hits", "F_MC(g)");
  for (size_t p = 1; p < profiles.size(); ++p) {  // beta > 0 from here on
    const stats::Chi2MixtureApprox approx =
        stats::FitChi2Mixture(profiles[p].coefficients);
    const std::vector<double>& draws = sorted_draws[p];
    const double n = double(draws.size());
    const double half_window =
        0.01 * (draws[static_cast<size_t>(0.75 * n)] -
                draws[static_cast<size_t>(0.25 * n)]);
    for (double u : {stats::Chi2MixtureApprox::kSupportEdge, 1e-9, 1e-6,
                     1e-3}) {
      // The first g whose rounded u is inside the support.
      double g = approx.beta + u * approx.alpha;
      while (!approx.InSupport(g)) g = std::nextafter(g, HUGE_VAL);
      auto rank = [&draws](double x) {
        return double(std::lower_bound(draws.begin(), draws.end(), x) -
                      draws.begin());
      };
      const double hits = rank(g + half_window) - rank(g - half_window);
      // No hit only bounds the density: below 1 / (n * window).
      const double mc_ic = -std::log(std::max(hits, 1.0) /
                                     (n * 2.0 * half_window));
      char mc[32];
      std::snprintf(mc, sizeof(mc), "%s%+.4f", hits > 0.0 ? "" : ">", mc_ic);
      std::printf("%-24s %8.3f %10.2e %8.4f %+14.4f %14s %8.0f %9.4f\n",
                  profiles[p].name, approx.m, (g - approx.beta) / approx.alpha,
                  g, approx.NegLogPdf(g), mc, hits, rank(g) / n);
    }
  }
  std::printf(
      "\nexpected: ~0 error for homogeneous coefficients (the surrogate is\n"
      "exact there), growing but modest (|dCDF| ~ a few %%) for dominated\n"
      "profiles; IC errors are fractions of a nat, far below the IC\n"
      "differences that drive pattern ranking. At the edge the surrogate\n"
      "IC runs off as (1 - m/2) log u (to +inf for m > 2, to -inf for\n"
      "m < 2), while the true mixture's density near beta is smooth (its\n"
      "IC changes little with u; '>' marks a bound from a window with no\n"
      "draw). The surrogate IC near beta reflects the fit, not the data;\n"
      "below u = 1e-12 a direction is infeasible (docs/ARCHITECTURE.md,\n"
      "\"Eq. 19 support edge\").\n");
  return 0;
}
