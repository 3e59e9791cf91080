#include "si/interestingness.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "random/rng.hpp"
#include "si/evaluation_context.hpp"

namespace sisd::si {
namespace {

using linalg::Matrix;
using linalg::Vector;
using model::BackgroundModel;
using pattern::Extension;

BackgroundModel MakeModel(size_t n, Vector mu, Matrix sigma) {
  Result<BackgroundModel> model =
      BackgroundModel::Create(n, std::move(mu), std::move(sigma));
  model.status().CheckOK();
  return std::move(model).MoveValue();
}

constexpr double kLog2Pi = 1.8378770664093453;

TEST(DescriptionLengthTest, PaperFormulas) {
  DescriptionLengthParams params;  // gamma = 0.1, eta = 1
  EXPECT_DOUBLE_EQ(LocationDescriptionLength(1, params), 1.1);
  EXPECT_DOUBLE_EQ(LocationDescriptionLength(2, params), 1.2);
  EXPECT_DOUBLE_EQ(LocationDescriptionLength(0, params), 1.0);
  // Spread patterns pay one extra unit (the direction term).
  EXPECT_DOUBLE_EQ(SpreadDescriptionLength(1, params), 2.1);
  DescriptionLengthParams custom{0.5, 2.0};
  EXPECT_DOUBLE_EQ(LocationDescriptionLength(3, custom), 3.5);
}

TEST(LocationIcTest, ClosedFormUnivariate) {
  // Single group N(0, 1), subgroup of size 4 with observed mean 1:
  // marginal of the mean is N(0, 1/4), so
  // IC = 0.5*log(2 pi * 0.25) + 0.5 * 1 / 0.25.
  BackgroundModel model = MakeModel(10, Vector{0.0}, Matrix{{1.0}});
  const Extension ext = Extension::FromRows(10, {0, 1, 2, 3});
  const double ic = LocationIC(model, ext, Vector{1.0});
  const double expected =
      0.5 * (kLog2Pi + std::log(0.25)) + 0.5 * 1.0 / 0.25;
  EXPECT_NEAR(ic, expected, 1e-12);
}

TEST(LocationIcTest, GrowsLinearlyWithCoverageAtFixedDisplacement) {
  // Doubling the subgroup size roughly doubles the quadratic term — the
  // "more data covered is better" property from the introduction.
  BackgroundModel model = MakeModel(100, Vector{0.0}, Matrix{{1.0}});
  std::vector<size_t> small_rows, large_rows;
  for (size_t i = 0; i < 10; ++i) small_rows.push_back(i);
  for (size_t i = 0; i < 20; ++i) large_rows.push_back(i);
  const double ic_small =
      LocationIC(model, Extension::FromRows(100, small_rows), Vector{1.0});
  const double ic_large =
      LocationIC(model, Extension::FromRows(100, large_rows), Vector{1.0});
  EXPECT_GT(ic_large, ic_small);
  // Quadratic terms: 0.5*|I| (displacement 1, unit variance); log-det terms
  // differ by -0.5 log 2 only.
  EXPECT_NEAR(ic_large - ic_small, 5.0 - 0.5 * std::log(2.0), 1e-10);
}

TEST(LocationIcTest, ZeroDisplacementCanBeNegative) {
  // IC at the expected mean is just the log-density height, which is
  // negative (a density above 1) for tight marginals... actually positive;
  // the paper observes SI *can* be negative for assimilated patterns:
  // density > 1 => -log pdf < 0 happens when |Sigma_I| is small.
  BackgroundModel model = MakeModel(1000, Vector{0.0}, Matrix{{1.0}});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 500; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(1000, rows);
  const double ic = LocationIC(model, ext, Vector{0.0});
  // Marginal sd = 1/sqrt(500): peak density sqrt(500/2pi) >> 1 -> IC < 0.
  EXPECT_LT(ic, 0.0);
}

TEST(LocationIcTest, FastPathMatchesGeneralPath) {
  // Split the model into two groups, then compare the single-group fast
  // path (probe inside one group) against a manual marginal computation.
  BackgroundModel model =
      MakeModel(20, Vector{0.0, 0.0}, Matrix{{2.0, 0.3}, {0.3, 1.0}});
  const Extension first = Extension::FromRows(20, {0, 1, 2, 3, 4});
  ASSERT_TRUE(model.UpdateLocation(first, Vector{1.0, 1.0}).ok());

  // Probe fully inside the updated group (fast path).
  const Extension probe = Extension::FromRows(20, {0, 1, 2});
  const Vector observed{1.5, 0.5};
  const double ic_fast = LocationIC(model, probe, observed);

  const model::MeanStatisticMarginal marginal =
      model.MeanStatMarginal(probe);
  Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(marginal.cov);
  ASSERT_TRUE(chol.ok());
  const Vector diff = observed - marginal.mean;
  const double ic_manual =
      0.5 * (2.0 * kLog2Pi + chol.Value().LogDeterminant()) +
      0.5 * chol.Value().InverseQuadraticForm(diff);
  EXPECT_NEAR(ic_fast, ic_manual, 1e-10);

  // Probe straddling both groups (general path) still finite and sane.
  const Extension straddle = Extension::FromRows(20, {4, 5, 6});
  EXPECT_TRUE(std::isfinite(LocationIC(model, straddle, observed)));
}

/// A dy = 1 model of `num_groups` groups over `n` rows (rows dealt round
/// robin), with random means and variances spanning `min_log10` to
/// `max_log10` decades.
BackgroundModel MakeUnivariateGroups(size_t n, size_t num_groups,
                                     double min_log10, double max_log10,
                                     random::Rng* rng) {
  std::vector<model::ParameterGroup> groups(num_groups);
  std::vector<std::vector<size_t>> rows(num_groups);
  for (size_t i = 0; i < n; ++i) rows[i % num_groups].push_back(i);
  for (size_t g = 0; g < num_groups; ++g) {
    groups[g].mu = Vector{rng->Gaussian(0.0, 3.0)};
    groups[g].sigma =
        Matrix{{std::pow(10.0, rng->Uniform(min_log10, max_log10))}};
    groups[g].rows = Extension::FromRows(n, rows[g]);
  }
  Result<BackgroundModel> model =
      BackgroundModel::RestoreFromParts(n, 1, std::move(groups));
  model.status().CheckOK();
  return std::move(model).MoveValue();
}

/// The generic multi-group composition the dy = 1 scalar path replaces.
double GenericMarginalIC(const BackgroundModel& model, const Extension& ext,
                         const Vector& empirical_mean) {
  Vector mean;
  Matrix cov;
  model.MeanStatMarginalInto(model.GroupCounts(ext), double(ext.count()),
                             &mean, &cov);
  Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(cov);
  chol.status().CheckOK();
  Vector diff;
  diff.AssignDifference(empirical_mean, mean);
  Vector scratch;
  return 0.5 * (double(model.dim()) * kLog2Pi +
                chol.Value().LogDeterminant()) +
         0.5 * chol.Value().InverseQuadraticForm(diff, &scratch);
}

TEST(LocationIcTest, UnivariateMultiGroupIcIsBitIdenticalToGenericPath) {
  random::Rng rng(2026);
  size_t straddling = 0;
  // Unit-scale variances, then ridge-scale ones (1e-8 of a unit variance,
  // as `CreateFromData` adds to a rank-deficient covariance).
  for (const auto& [lo, hi] : {std::pair{-2.0, 2.0}, std::pair{-10.0, -6.0}}) {
    for (size_t num_groups : {2u, 3u, 7u, 24u}) {
      const size_t n = 300;
      const BackgroundModel model =
          MakeUnivariateGroups(n, num_groups, lo, hi, &rng);
      si::EvaluationContext context(model);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<size_t> rows;
        const double density = rng.Uniform(0.01, 0.9);
        for (size_t i = 0; i < n; ++i) {
          if (rng.Bernoulli(density)) rows.push_back(i);
        }
        if (rows.empty()) rows.push_back(size_t(rng.UniformInt(0, n - 1)));
        const Extension ext = Extension::FromRows(n, rows);
        size_t groups_hit = 0;
        for (size_t count : model.GroupCounts(ext)) groups_hit += count > 0;
        if (groups_hit < 2) continue;
        ++straddling;
        const Vector observed{rng.Gaussian(0.0, 3.0)};
        const double actual = context.LocationIC(ext, observed);
        const double expected = GenericMarginalIC(model, ext, observed);
        ASSERT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
            << "groups " << num_groups << ", trial " << trial << ": "
            << actual << " vs " << expected;
      }
    }
  }
  EXPECT_GT(straddling, 1000u);
}

TEST(LocationIcTest, UnivariateMultiGroupZeroMarginalVarianceAborts) {
  // Two groups of the smallest subnormal variance: each factorizes, but the
  // straddling marginal variance 2/16 * 4.9e-324 underflows to 0, which the
  // generic path's factorization rejects as well.
  std::vector<model::ParameterGroup> groups(2);
  for (size_t g = 0; g < 2; ++g) {
    groups[g].mu = Vector{0.0};
    groups[g].sigma = Matrix{{std::numeric_limits<double>::denorm_min()}};
    groups[g].rows = Extension::FromRows(4, {2 * g, 2 * g + 1});
  }
  Result<BackgroundModel> model =
      BackgroundModel::RestoreFromParts(4, 1, std::move(groups));
  ASSERT_TRUE(model.ok());
  const Extension all = Extension::FromRows(4, {0, 1, 2, 3});
  EXPECT_DEATH(LocationIC(model.Value(), all, Vector{0.0}), "SISD_CHECK");
}

TEST(LocationIcTest, DropsAfterAssimilation) {
  // The core iterative-mining property (Table I): once a pattern is
  // assimilated, its IC collapses.
  BackgroundModel model = MakeModel(50, Vector{0.0}, Matrix{{1.0}});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 10; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(50, rows);
  const Vector observed{2.0};
  const double ic_before = LocationIC(model, ext, observed);
  ASSERT_TRUE(model.UpdateLocation(ext, observed).ok());
  const double ic_after = LocationIC(model, ext, observed);
  EXPECT_GT(ic_before, 15.0);
  EXPECT_LT(ic_after, 0.5);
  EXPECT_LT(ic_after, ic_before);
}

TEST(ScoreLocationTest, CombinesIcAndDl) {
  BackgroundModel model = MakeModel(10, Vector{0.0}, Matrix{{1.0}});
  const Extension ext = Extension::FromRows(10, {0, 1});
  DescriptionLengthParams params;
  const LocationScore one = ScoreLocation(model, ext, Vector{1.0}, 1, params);
  const LocationScore two = ScoreLocation(model, ext, Vector{1.0}, 2, params);
  EXPECT_DOUBLE_EQ(one.ic, two.ic);
  EXPECT_GT(one.si, two.si);  // longer description -> lower SI
  EXPECT_DOUBLE_EQ(one.si, one.ic / 1.1);
  EXPECT_DOUBLE_EQ(two.si, two.ic / 1.2);
}

TEST(SpreadSurrogateTest, SingleGroupIsExactChiSquare) {
  BackgroundModel model =
      MakeModel(30, Vector{0.0, 0.0}, Matrix::Identity(2));
  const Extension ext = Extension::FromRows(30, {0, 1, 2, 3, 4});
  const Vector w = Vector{1.0, 0.0};
  const stats::Chi2MixtureApprox approx =
      FitSpreadSurrogate(model, ext, w);
  // All coefficients equal 1/5: alpha = 1/5, beta = 0, m = 5.
  EXPECT_NEAR(approx.alpha, 0.2, 1e-12);
  EXPECT_NEAR(approx.beta, 0.0, 1e-12);
  EXPECT_NEAR(approx.m, 5.0, 1e-9);
}

TEST(SpreadIcTest, SurprisinglySmallVarianceIsInteresting) {
  BackgroundModel model =
      MakeModel(100, Vector{0.0, 0.0}, Matrix::Identity(2));
  std::vector<size_t> rows;
  for (size_t i = 0; i < 40; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(100, rows);
  const Vector w = Vector{1.0, 1.0}.Normalized();
  // Expected variance along w is 1; observing 1 is unremarkable, observing
  // 0.05 or 5.0 is surprising.
  const double ic_expected = SpreadIC(model, ext, w, 1.0);
  const double ic_small = SpreadIC(model, ext, w, 0.05);
  const double ic_large = SpreadIC(model, ext, w, 5.0);
  EXPECT_GT(ic_small, ic_expected);
  EXPECT_GT(ic_large, ic_expected);
}

TEST(SpreadIcTest, DropsAfterSpreadAssimilation) {
  BackgroundModel model =
      MakeModel(60, Vector{0.0, 0.0}, Matrix::Identity(2));
  std::vector<size_t> rows;
  for (size_t i = 0; i < 20; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(60, rows);
  const Vector w{1.0, 0.0};
  const Vector anchor{0.0, 0.0};
  const double observed = 0.1;
  const double ic_before = SpreadIC(model, ext, w, observed);
  ASSERT_TRUE(model.UpdateSpread(ext, w, anchor, observed).ok());
  const double ic_after = SpreadIC(model, ext, w, observed);
  EXPECT_LT(ic_after, ic_before);
}

TEST(ScoreSpreadTest, DlIncludesDirectionTerm) {
  BackgroundModel model =
      MakeModel(30, Vector{0.0, 0.0}, Matrix::Identity(2));
  const Extension ext = Extension::FromRows(30, {0, 1, 2, 3});
  DescriptionLengthParams params;
  const SpreadScore score =
      ScoreSpread(model, ext, Vector{1.0, 0.0}, 0.5, 1, params);
  EXPECT_DOUBLE_EQ(score.dl, 2.1);
  EXPECT_DOUBLE_EQ(score.si, score.ic / 2.1);
  EXPECT_GT(score.approx.m, 0.0);
}

TEST(PerAttributeIcTest, MatchesUnivariateClosedForm) {
  // Diagonal covariance: the per-attribute IC is the univariate Eq. (13).
  Matrix sigma{{4.0, 0.0}, {0.0, 1.0}};
  BackgroundModel model = MakeModel(20, Vector{0.0, 0.0}, sigma);
  const Extension ext = Extension::FromRows(20, {0, 1, 2, 3});
  const Vector observed{2.0, 0.5};
  const Vector ic = PerAttributeLocationIC(model, ext, observed);
  ASSERT_EQ(ic.size(), 2u);
  // Attribute 0: marginal var 4/4 = 1, diff 2 -> 0.5 log(2pi) + 2.
  EXPECT_NEAR(ic[0], 0.5 * kLog2Pi + 2.0, 1e-12);
  // Attribute 1: marginal var 1/4, diff 0.5 -> quad = 0.25/(2*0.25) = 0.5.
  EXPECT_NEAR(ic[1], 0.5 * (kLog2Pi + std::log(0.25)) + 0.5, 1e-12);
}

TEST(PerAttributeIcTest, RankingOrdersBySurprise) {
  Matrix sigma = Matrix::Identity(3);
  BackgroundModel model = MakeModel(30, Vector(3), sigma);
  const Extension ext = Extension::FromRows(30, {0, 1, 2, 3, 4});
  // Attribute 1 most displaced, then 2, then 0.
  const Vector observed{0.1, 3.0, -1.0};
  const std::vector<size_t> order =
      RankAttributesByIC(model, ext, observed);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(PerAttributeIcTest, CorrelatedTargetsShareInformation) {
  // The paper (§III-B) notes the joint IC of correlated attributes is less
  // than the sum of individual ICs, because the background model accounts
  // for the correlation. Verify: joint IC < sum of per-attribute ICs for
  // strongly correlated targets displaced together.
  Matrix sigma{{1.0, 0.95}, {0.95, 1.0}};
  BackgroundModel model = MakeModel(40, Vector{0.0, 0.0}, sigma);
  const Extension ext = Extension::FromRows(40, {0, 1, 2, 3, 4, 5});
  const Vector observed{1.5, 1.5};  // displaced along the correlation
  const double joint = LocationIC(model, ext, observed);
  const Vector per_attr = PerAttributeLocationIC(model, ext, observed);
  EXPECT_LT(joint, per_attr[0] + per_attr[1]);
}

TEST(SpreadIcTest, MatchesMonteCarloNegLogDensity) {
  // Empirical density of g under the model vs exp(-IC).
  BackgroundModel model =
      MakeModel(50, Vector{0.0, 0.0}, Matrix{{1.5, 0.5}, {0.5, 1.0}});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 15; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(50, rows);
  const Vector w = Vector{0.8, -0.6};
  const double s = model.CovarianceOf(0).QuadraticForm(w);

  random::Rng rng(31);
  const double lo = 0.8 * s, hi = 1.0 * s;
  int hits = 0;
  const int kReps = 60000;
  for (int rep = 0; rep < kReps; ++rep) {
    // g = sum over 15 rows of s * chi2(1) / 15.
    double g = 0.0;
    for (int i = 0; i < 15; ++i) {
      const double z = rng.Gaussian();
      g += s * z * z / 15.0;
    }
    if (g >= lo && g < hi) ++hits;
  }
  const double empirical = double(hits) / kReps / (hi - lo);
  const double from_ic = std::exp(-SpreadIC(model, ext, w, 0.5 * (lo + hi)));
  EXPECT_NEAR(from_ic, empirical, 0.12 * empirical);
}

}  // namespace
}  // namespace sisd::si
