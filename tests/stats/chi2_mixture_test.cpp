#include "stats/chi2_mixture.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "random/rng.hpp"
#include "stats/special.hpp"

namespace sisd::stats {
namespace {

TEST(Chi2MixtureTest, EqualCoefficientsAreExact) {
  // sum of k a*chi2(1) = a * chi2(k): alpha = a, beta = 0, m = k.
  const double a = 0.37;
  const size_t k = 25;
  Chi2MixtureApprox approx = FitChi2Mixture(std::vector<double>(k, a));
  EXPECT_NEAR(approx.alpha, a, 1e-12);
  EXPECT_NEAR(approx.beta, 0.0, 1e-12);
  EXPECT_NEAR(approx.m, double(k), 1e-9);
}

TEST(Chi2MixtureTest, MatchesFirstThreeCumulantsExactly) {
  // Zhang's fit matches mean, variance and third central moment of the
  // true mixture: E = A1, Var = 2*A2, mu3 = 8*A3.
  const std::vector<double> a{0.1, 0.5, 1.0, 2.0, 0.25};
  double a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (double ai : a) {
    a1 += ai;
    a2 += ai * ai;
    a3 += ai * ai * ai;
  }
  Chi2MixtureApprox approx = FitChi2Mixture(a);
  EXPECT_NEAR(approx.MeanValue(), a1, 1e-12);
  EXPECT_NEAR(approx.VarianceValue(), 2.0 * a2, 1e-12);
  EXPECT_NEAR(approx.ThirdCentralMoment(), 8.0 * a3, 1e-12);
}

TEST(Chi2MixtureTest, PowerSumConstructorAgrees) {
  const std::vector<double> a{0.3, 0.6, 0.9};
  Chi2MixtureApprox direct = FitChi2Mixture(a);
  Chi2MixtureApprox from_sums = FitChi2MixtureFromPowerSums(
      0.3 + 0.6 + 0.9, 0.09 + 0.36 + 0.81, 0.027 + 0.216 + 0.729);
  EXPECT_NEAR(direct.alpha, from_sums.alpha, 1e-15);
  EXPECT_NEAR(direct.beta, from_sums.beta, 1e-15);
  EXPECT_NEAR(direct.m, from_sums.m, 1e-15);
}

TEST(Chi2MixtureTest, NegLogPdfMatchesChiSquareWhenExact) {
  // With equal coefficients the surrogate is a*chi2(k); compare to the
  // analytic chi2 log pdf with change of variables.
  const double a = 2.0;
  const size_t k = 5;
  Chi2MixtureApprox approx = FitChi2Mixture(std::vector<double>(k, a));
  for (double g : {2.0, 6.0, 10.0, 20.0}) {
    const double expected = -(ChiSquareLogPdf(g / a, double(k)) - std::log(a));
    EXPECT_NEAR(approx.NegLogPdf(g), expected, 1e-9) << "g=" << g;
  }
}

TEST(Chi2MixtureTest, NegLogPdfInfiniteOutsideSupport) {
  Chi2MixtureApprox approx = FitChi2Mixture({1.0, 2.0, 3.0});
  EXPECT_GT(approx.beta, 0.0);
  EXPECT_TRUE(std::isinf(approx.NegLogPdf(approx.beta)));
  EXPECT_TRUE(std::isinf(approx.NegLogPdf(approx.beta - 1.0)));
}

TEST(Chi2MixtureTest, SupportEdgeIsTheStandardizedFloor) {
  // The IC is defined from u = (g - beta) / alpha = kSupportEdge on; just
  // below it NegLogPdf is +inf, just above it finite.
  const Chi2MixtureApprox approx = FitChi2Mixture({1.0, 2.0, 3.0});
  const double edge = Chi2MixtureApprox::kSupportEdge;
  const double above = approx.beta + 1.01 * edge * approx.alpha;
  const double below = approx.beta + 0.99 * edge * approx.alpha;
  EXPECT_TRUE(approx.InSupport(above));
  EXPECT_TRUE(std::isfinite(approx.NegLogPdf(above)));
  EXPECT_FALSE(approx.InSupport(below));
  EXPECT_TRUE(std::isinf(approx.NegLogPdf(below)));
  EXPECT_FALSE(approx.InSupport(std::nan("")));
}

TEST(Chi2MixtureTest, PartialsMatchFiniteDifferencesNearTheEdge) {
  // IC as a function of (g, A1, A2, A3): refit and evaluate. Steps are a
  // small fraction of alpha * u so every probe stays inside the support.
  const std::vector<double> a{0.5, 1.0, 1.5, 0.7, 0.9, 1.2};
  const Chi2MixtureApprox base = FitChi2Mixture(a);
  auto ic = [](double g, double a1, double a2, double a3) {
    return FitChi2MixtureFromPowerSums(a1, a2, a3).NegLogPdf(g);
  };
  for (double u : {1e-8, 1e-4, 1.0}) {
    const double g = base.beta + u * base.alpha;
    Chi2MixtureApprox::Partials partials;
    const double value = base.NegLogPdf(g, &partials);
    ASSERT_TRUE(std::isfinite(value)) << "u=" << u;
    EXPECT_EQ(value, base.NegLogPdf(g));
    const double h = 1e-3 * u * base.alpha;
    const double x[4] = {g, base.a1, base.a2, base.a3};
    const double analytic[4] = {partials.g, partials.a1, partials.a2,
                                partials.a3};
    for (int k = 0; k < 4; ++k) {
      double plus[4] = {x[0], x[1], x[2], x[3]};
      double minus[4] = {x[0], x[1], x[2], x[3]};
      plus[k] += h;
      minus[k] -= h;
      const double numeric = (ic(plus[0], plus[1], plus[2], plus[3]) -
                              ic(minus[0], minus[1], minus[2], minus[3])) /
                             (2.0 * h);
      EXPECT_NEAR(analytic[k], numeric, 1e-4 * std::fabs(numeric))
          << "u=" << u << " partial " << k;
    }
  }
}

TEST(Chi2MixtureTest, CdfIsMonotoneAndNormalized) {
  Chi2MixtureApprox approx = FitChi2Mixture({0.5, 1.0, 1.5, 2.0});
  EXPECT_DOUBLE_EQ(approx.Cdf(approx.beta - 0.1), 0.0);
  double prev = 0.0;
  for (double g = approx.beta + 0.01; g < 40.0; g += 0.5) {
    const double cdf = approx.Cdf(g);
    EXPECT_GE(cdf, prev);
    prev = cdf;
  }
  EXPECT_NEAR(approx.Cdf(1e4), 1.0, 1e-10);
}

TEST(Chi2MixtureTest, MonteCarloDensityAgreement) {
  // Compare surrogate CDF against an empirical CDF of the true mixture.
  const std::vector<double> a{0.2, 0.4, 0.8, 1.6, 0.1, 0.1, 0.3};
  Chi2MixtureApprox approx = FitChi2Mixture(a);
  random::Rng rng(77);
  const int kSamples = 40000;
  std::vector<double> draws(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    double acc = 0.0;
    for (double ai : a) {
      const double z = rng.Gaussian();
      acc += ai * z * z;
    }
    draws[static_cast<size_t>(s)] = acc;
  }
  std::sort(draws.begin(), draws.end());
  // Check at several quantiles: |F_approx - F_empirical| small. The
  // three-cumulant fit is weakest in the far left tail when one
  // coefficient dominates (the surrogate's support starts at beta > 0
  // while the true mixture reaches 0), so the tolerance is looser there;
  // the body and right tail must be tight.
  for (double p : {0.5, 0.75, 0.9, 0.99}) {
    const double x = draws[static_cast<size_t>(p * (kSamples - 1))];
    EXPECT_NEAR(approx.Cdf(x), p, 0.03) << "p=" << p;
  }
  for (double p : {0.1, 0.25}) {
    const double x = draws[static_cast<size_t>(p * (kSamples - 1))];
    EXPECT_NEAR(approx.Cdf(x), p, 0.06) << "p=" << p;
  }
}

TEST(Chi2MixtureTest, NegLogPdfMatchesMonteCarloHistogram) {
  // Density estimate from a histogram bucket vs surrogate pdf.
  const std::vector<double> a{0.5, 1.0, 1.5};
  Chi2MixtureApprox approx = FitChi2Mixture(a);
  random::Rng rng(78);
  const int kSamples = 200000;
  const double lo = 2.0, hi = 2.4;
  int hits = 0;
  for (int s = 0; s < kSamples; ++s) {
    double acc = 0.0;
    for (double ai : a) {
      const double z = rng.Gaussian();
      acc += ai * z * z;
    }
    if (acc >= lo && acc < hi) ++hits;
  }
  const double empirical_density = double(hits) / double(kSamples) / (hi - lo);
  const double surrogate_density =
      std::exp(-approx.NegLogPdf(0.5 * (lo + hi)));
  EXPECT_NEAR(surrogate_density, empirical_density,
              0.15 * empirical_density);
}

class Chi2MixtureSpreadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Chi2MixtureSpreadTest, RandomCoefficientCumulants) {
  random::Rng rng(GetParam());
  std::vector<double> a(static_cast<size_t>(rng.UniformInt(2, 40)));
  for (double& ai : a) ai = rng.Uniform(0.05, 3.0);
  Chi2MixtureApprox approx = FitChi2Mixture(a);
  EXPECT_GT(approx.alpha, 0.0);
  EXPECT_GT(approx.m, 0.0);
  double a1 = 0.0, a2 = 0.0;
  for (double ai : a) {
    a1 += ai;
    a2 += ai * ai;
  }
  EXPECT_NEAR(approx.MeanValue(), a1, 1e-10 * a1);
  EXPECT_NEAR(approx.VarianceValue(), 2.0 * a2, 1e-10 * a2);
  // beta < mean (support covers the bulk of the distribution).
  EXPECT_LT(approx.beta, a1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Chi2MixtureSpreadTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sisd::stats
