#include "model/background_model.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "random/rng.hpp"
#include "stats/descriptive.hpp"

namespace sisd::model {
namespace {

using linalg::Matrix;
using linalg::Vector;
using pattern::Extension;

BackgroundModel MakeModel(size_t n, Vector mu, Matrix sigma) {
  Result<BackgroundModel> model =
      BackgroundModel::Create(n, std::move(mu), std::move(sigma));
  model.status().CheckOK();
  return std::move(model).MoveValue();
}

TEST(BackgroundModelTest, CreateValidatesInput) {
  EXPECT_FALSE(BackgroundModel::Create(0, Vector{0.0}, Matrix{{1.0}}).ok());
  EXPECT_FALSE(
      BackgroundModel::Create(3, Vector{0.0, 0.0}, Matrix{{1.0}}).ok());
  // Non-SPD covariance rejected.
  EXPECT_FALSE(BackgroundModel::Create(3, Vector{0.0, 0.0},
                                       Matrix{{1.0, 2.0}, {2.0, 1.0}})
                   .ok());
  EXPECT_TRUE(BackgroundModel::Create(3, Vector{0.0}, Matrix{{1.0}}).ok());
}

TEST(BackgroundModelTest, InitialModelHasOneGroup) {
  BackgroundModel model =
      MakeModel(10, Vector{1.0, 2.0}, Matrix::Identity(2));
  EXPECT_EQ(model.num_rows(), 10u);
  EXPECT_EQ(model.dim(), 2u);
  EXPECT_EQ(model.num_groups(), 1u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(model.GroupOf(i), 0u);
    EXPECT_EQ(model.MeanOf(i), (Vector{1.0, 2.0}));
  }
}

TEST(BackgroundModelTest, CreateFromDataMatchesEmpiricalMoments) {
  random::Rng rng(21);
  Matrix y(500, 2);
  for (size_t i = 0; i < 500; ++i) {
    y(i, 0) = rng.Gaussian(1.0, 2.0);
    y(i, 1) = rng.Gaussian(-1.0, 0.5);
  }
  Result<BackgroundModel> model = BackgroundModel::CreateFromData(y);
  ASSERT_TRUE(model.ok());
  const Vector emp_mean = stats::ColumnMeans(y);
  const Matrix emp_cov = stats::CovarianceMatrix(y);
  EXPECT_LT(MaxAbsDiff(model.Value().MeanOf(0), emp_mean), 1e-12);
  // Ridge perturbs the diagonal only infinitesimally.
  EXPECT_LT(MaxAbsDiff(model.Value().CovarianceOf(0), emp_cov), 1e-6);
}

TEST(BackgroundModelTest, CreateFromDataHandlesRankDeficiency) {
  // Duplicate columns -> singular empirical covariance; ridge must rescue.
  Matrix y(50, 2);
  random::Rng rng(22);
  for (size_t i = 0; i < 50; ++i) {
    const double v = rng.Gaussian();
    y(i, 0) = v;
    y(i, 1) = v;  // perfectly correlated
  }
  Result<BackgroundModel> model = BackgroundModel::CreateFromData(y, 1e-6);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
}

// --- Theorem 1: location updates ------------------------------------------

TEST(LocationUpdateTest, SubgroupMeanBecomesTarget) {
  BackgroundModel model =
      MakeModel(20, Vector{0.0, 0.0}, Matrix::Identity(2));
  const Extension ext = Extension::FromRows(20, {0, 1, 2, 3, 4});
  const Vector target{2.0, -1.0};
  Result<double> update = model.UpdateLocation(ext, target);
  ASSERT_TRUE(update.ok());
  EXPECT_GT(update.Value(), 0.0);
  // Constraint satisfied exactly.
  EXPECT_LT(MaxAbsDiff(model.ExpectedSubgroupMean(ext), target), 1e-12);
  // With one prior group, each row's mean becomes the target itself.
  EXPECT_LT(MaxAbsDiff(model.MeanOf(0), target), 1e-12);
  // Rows outside the extension unchanged.
  EXPECT_EQ(model.MeanOf(10), (Vector{0.0, 0.0}));
  // Covariances untouched by location updates.
  EXPECT_EQ(model.CovarianceOf(0), Matrix::Identity(2));
  EXPECT_EQ(model.num_groups(), 2u);
}

TEST(LocationUpdateTest, IdempotentWhenConstraintAlreadyHolds) {
  BackgroundModel model =
      MakeModel(10, Vector{1.0}, Matrix{{2.0}});
  const Extension ext = Extension::FromRows(10, {0, 1, 2});
  ASSERT_TRUE(model.UpdateLocation(ext, Vector{3.0}).ok());
  Result<double> second = model.UpdateLocation(ext, Vector{3.0});
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second.Value(), 0.0, 1e-12);  // lambda = 0: no-op
}

TEST(LocationUpdateTest, GeneralCovarianceMovesMeanAlongSigmaLambda) {
  // Non-spherical covariance: mu_new = mu + Sigma lambda with
  // lambda = SigmaBar^{-1}(target - muBar). With a single group this
  // reduces to mu_new = target, but the intermediate lambda is
  // direction-dependent; verify via expectation.
  Matrix sigma{{2.0, 0.5}, {0.5, 1.0}};
  BackgroundModel model = MakeModel(8, Vector{1.0, 1.0}, sigma);
  const Extension ext = Extension::FromRows(8, {2, 3, 5});
  const Vector target{0.0, 4.0};
  ASSERT_TRUE(model.UpdateLocation(ext, target).ok());
  EXPECT_LT(MaxAbsDiff(model.ExpectedSubgroupMean(ext), target), 1e-12);
  EXPECT_LT(MaxAbsDiff(model.MeanOf(3), target), 1e-12);
}

TEST(LocationUpdateTest, OverlappingExtensionsSplitGroups) {
  BackgroundModel model =
      MakeModel(10, Vector{0.0}, Matrix{{1.0}});
  const Extension first = Extension::FromRows(10, {0, 1, 2, 3});
  const Extension second = Extension::FromRows(10, {2, 3, 4, 5});
  ASSERT_TRUE(model.UpdateLocation(first, Vector{1.0}).ok());
  ASSERT_TRUE(model.UpdateLocation(second, Vector{2.0}).ok());
  // Groups: {0,1}, {2,3}, {4,5}, {6..9} -> 4 distinct groups.
  EXPECT_EQ(model.num_groups(), 4u);
  // Rows with identical update history share parameters.
  EXPECT_EQ(model.GroupOf(0), model.GroupOf(1));
  EXPECT_EQ(model.GroupOf(2), model.GroupOf(3));
  EXPECT_EQ(model.GroupOf(4), model.GroupOf(5));
  EXPECT_EQ(model.GroupOf(6), model.GroupOf(9));
  EXPECT_NE(model.GroupOf(0), model.GroupOf(2));
  // Second constraint holds exactly after its update.
  EXPECT_LT(MaxAbsDiff(model.ExpectedSubgroupMean(second), Vector{2.0}),
            1e-12);
}

TEST(LocationUpdateTest, RejectsBadArguments) {
  BackgroundModel model = MakeModel(5, Vector{0.0}, Matrix{{1.0}});
  EXPECT_FALSE(model.UpdateLocation(Extension(5), Vector{1.0}).ok());
  EXPECT_FALSE(model
                   .UpdateLocation(Extension::FromRows(5, {0}),
                                   Vector{1.0, 2.0})
                   .ok());
}

// --- Theorem 2: spread updates --------------------------------------------

TEST(SpreadUpdateTest, ConstraintHoldsAfterUpdate) {
  BackgroundModel model =
      MakeModel(30, Vector{0.0, 0.0}, Matrix::Identity(2));
  const Extension ext = Extension::FromRows(30, {0, 1, 2, 3, 4, 5, 6, 7});
  const Vector w = Vector{1.0, 1.0}.Normalized();
  const Vector anchor{0.0, 0.0};
  const double target_var = 0.2;  // shrink variance along w
  Result<double> lambda = model.UpdateSpread(ext, w, anchor, target_var);
  ASSERT_TRUE(lambda.ok()) << lambda.status().ToString();
  EXPECT_GT(lambda.Value(), 0.0);  // shrinking -> positive multiplier
  EXPECT_NEAR(model.ExpectedDirectionalVariance(ext, w, anchor), target_var,
              1e-9);
}

TEST(SpreadUpdateTest, InflatingVarianceUsesNegativeLambda) {
  BackgroundModel model =
      MakeModel(30, Vector{0.0, 0.0}, Matrix::Identity(2));
  const Extension ext = Extension::FromRows(30, {0, 1, 2, 3, 4});
  const Vector w{1.0, 0.0};
  const Vector anchor{0.0, 0.0};
  const double target_var = 3.0;  // inflate
  Result<double> lambda = model.UpdateSpread(ext, w, anchor, target_var);
  ASSERT_TRUE(lambda.ok());
  EXPECT_LT(lambda.Value(), 0.0);
  EXPECT_NEAR(model.ExpectedDirectionalVariance(ext, w, anchor), target_var,
              1e-9);
  // Covariance along w grew; orthogonal direction untouched.
  EXPECT_GT(model.CovarianceOf(0)(0, 0), 1.0);
  EXPECT_NEAR(model.CovarianceOf(0)(1, 1), 1.0, 1e-12);
}

TEST(SpreadUpdateTest, CovarianceStaysSpdAndRank1Structured) {
  BackgroundModel model =
      MakeModel(10, Vector{0.0, 0.0, 0.0}, Matrix::Identity(3));
  const Extension ext = Extension::FromRows(10, {0, 1, 2, 3});
  const Vector w = Vector{1.0, 2.0, -1.0}.Normalized();
  ASSERT_TRUE(model.UpdateSpread(ext, w, Vector(3), 0.1).ok());
  const Matrix& sigma = model.CovarianceOf(0);
  // Still SPD (Cholesky must succeed).
  EXPECT_TRUE(linalg::Cholesky::Compute(sigma).ok());
  // Sigma = I - c w w' for some c: off-diagonal entries proportional to
  // w_i w_j.
  const double c01 = (Matrix::Identity(3) - sigma)(0, 1) / (w[0] * w[1]);
  const double c02 = (Matrix::Identity(3) - sigma)(0, 2) / (w[0] * w[2]);
  EXPECT_NEAR(c01, c02, 1e-10);
}

TEST(SpreadUpdateTest, DegenerateResultLeavesParametersUnchanged) {
  // Two groups inside the extension. Shrinking the variance to 1e-40 makes
  // lambda / (1 + lambda s) round to 1/s, so Eq. (11) rounds Sigma to 0:
  // the update must fail as a whole and commit neither group.
  BackgroundModel model = MakeModel(10, Vector{0.0}, Matrix{{1.0}});
  ASSERT_TRUE(
      model.UpdateLocation(Extension::FromRows(10, {0, 1, 2}), Vector{0.5})
          .ok());
  const Extension ext = Extension::FromRows(10, {0, 1, 2, 3, 4, 5});
  const Vector anchor = model.ExpectedSubgroupMean(ext);
  std::vector<Vector> mu_before;
  std::vector<Matrix> sigma_before;
  for (size_t i = 0; i < 10; ++i) {
    mu_before.push_back(model.MeanOf(i));
    sigma_before.push_back(model.CovarianceOf(i));
  }
  Result<double> lambda = model.UpdateSpread(ext, Vector{1.0}, anchor, 1e-40);
  ASSERT_FALSE(lambda.ok());
  EXPECT_EQ(lambda.status().code(), StatusCode::kNumericalError);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(model.MeanOf(i), mu_before[i]) << i;
    EXPECT_EQ(model.CovarianceOf(i), sigma_before[i]) << i;
  }
  for (size_t g = 0; g < model.num_groups(); ++g) {
    EXPECT_EQ(model.GroupCholesky(g).L(),
              linalg::Cholesky::Compute(model.group(g).sigma).Value().L());
  }
}

TEST(SpreadUpdateTest, MeanMovesTowardAnchorAlongW) {
  // Rows with mean != anchor: the spread tilt drags mu toward the anchor
  // along w (Eq. 10) when shrinking.
  BackgroundModel model =
      MakeModel(10, Vector{1.0, 0.0}, Matrix::Identity(2));
  const Extension ext = Extension::FromRows(10, {0, 1, 2});
  const Vector w{1.0, 0.0};
  const Vector anchor{3.0, 0.0};
  ASSERT_TRUE(model.UpdateSpread(ext, w, anchor, 0.5).ok());
  EXPECT_GT(model.MeanOf(0)[0], 1.0);  // moved toward 3
  EXPECT_NEAR(model.MeanOf(0)[1], 0.0, 1e-12);
}

TEST(SpreadUpdateTest, ValidatesArguments) {
  BackgroundModel model = MakeModel(5, Vector{0.0}, Matrix{{1.0}});
  const Extension ext = Extension::FromRows(5, {0, 1});
  EXPECT_FALSE(model.UpdateSpread(Extension(5), Vector{1.0}, Vector{0.0}, 1.0)
                   .ok());
  EXPECT_FALSE(model.UpdateSpread(ext, Vector{2.0}, Vector{0.0}, 1.0).ok());
  EXPECT_FALSE(model.UpdateSpread(ext, Vector{1.0}, Vector{0.0}, -1.0).ok());
  EXPECT_FALSE(model.UpdateSpread(ext, Vector{1.0}, Vector{0.0}, 0.0).ok());
}

TEST(SpreadUpdateTest, MonteCarloVarianceMatchesConstraint) {
  // Sample from the updated model and check the statistic empirically.
  BackgroundModel model =
      MakeModel(200, Vector{0.0, 0.0}, Matrix::Identity(2));
  std::vector<size_t> rows;
  for (size_t i = 0; i < 200; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(200, rows);
  const Vector w = Vector{0.6, 0.8};
  const Vector anchor{0.5, -0.5};
  const double target = 0.7;
  ASSERT_TRUE(model.UpdateSpread(ext, w, anchor, target).ok());

  random::Rng rng(99);
  random::MultivariateNormalSampler sampler(model.MeanOf(0),
                                            model.CovarianceOf(0));
  double acc = 0.0;
  const int kReps = 3000;
  for (int rep = 0; rep < kReps; ++rep) {
    double stat = 0.0;
    for (size_t i = 0; i < 200; ++i) {
      const Vector y = sampler.Sample(&rng);
      const double proj = (y - anchor).Dot(w);
      stat += proj * proj;
    }
    acc += stat / 200.0;
  }
  EXPECT_NEAR(acc / kReps, target, 0.02);
}

// --- Root finder for Eq. (12) ---------------------------------------------

TEST(SolveSpreadLambdaTest, RecoversZeroWhenConstraintHolds) {
  std::vector<DirectionalTerm> terms{{1.0, 0.0, 10}};
  // Current expectation = 1.0 per row; ask for exactly that.
  Result<double> lambda = SolveSpreadLambda(terms, 1.0);
  ASSERT_TRUE(lambda.ok());
  EXPECT_NEAR(lambda.Value(), 0.0, 1e-12);
}

TEST(SolveSpreadLambdaTest, ClosedFormSingleGroupCentered) {
  // One group, d = 0: s/(1+lambda s) = v  =>  lambda = (s - v)/(s v).
  const double s = 2.0, v = 0.5;
  std::vector<DirectionalTerm> terms{{s, 0.0, 7}};
  Result<double> lambda = SolveSpreadLambda(terms, v);
  ASSERT_TRUE(lambda.ok());
  EXPECT_NEAR(lambda.Value(), (s - v) / (s * v), 1e-10);
}

TEST(SolveSpreadLambdaTest, NegativeBranchBracketedCorrectly) {
  const double s = 1.0, v = 4.0;  // inflate: lambda in (-1, 0)
  std::vector<DirectionalTerm> terms{{s, 0.0, 3}};
  Result<double> lambda = SolveSpreadLambda(terms, v);
  ASSERT_TRUE(lambda.ok());
  EXPECT_NEAR(lambda.Value(), (s - v) / (s * v), 1e-10);
  EXPECT_GT(lambda.Value(), -1.0);
}

TEST(SolveSpreadLambdaTest, MixedTermsSatisfyEquationTwelve) {
  std::vector<DirectionalTerm> terms{
      {0.5, 0.3, 4}, {2.0, -1.0, 7}, {1.2, 0.0, 9}};
  const double target = 0.9;
  Result<double> lambda = SolveSpreadLambda(terms, target);
  ASSERT_TRUE(lambda.ok());
  double lhs = 0.0;
  size_t total = 0;
  for (const DirectionalTerm& t : terms) {
    const double denom = 1.0 + lambda.Value() * t.s;
    lhs += double(t.count) *
           (t.s / denom + (t.d / denom) * (t.d / denom));
    total += t.count;
  }
  EXPECT_NEAR(lhs, double(total) * target, 1e-8);
}

TEST(SolveSpreadLambdaTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(SolveSpreadLambda({}, 1.0).ok());
  EXPECT_FALSE(
      SolveSpreadLambda({{1.0, 0.0, 3}}, 0.0).ok());
  EXPECT_FALSE(
      SolveSpreadLambda({{0.0, 0.0, 3}}, 1.0).ok());  // nonpositive s
}

// --- Marginals, densities, diagnostics ------------------------------------

TEST(MeanStatMarginalTest, SingleGroupClosedForm) {
  Matrix sigma{{2.0, 0.4}, {0.4, 1.0}};
  BackgroundModel model = MakeModel(50, Vector{1.0, -1.0}, sigma);
  const Extension ext = Extension::FromRows(50, {0, 1, 2, 3});
  const MeanStatisticMarginal marginal = model.MeanStatMarginal(ext);
  EXPECT_LT(MaxAbsDiff(marginal.mean, Vector{1.0, -1.0}), 1e-14);
  // cov = Sigma * 4 / 16 = Sigma / 4.
  EXPECT_LT(MaxAbsDiff(marginal.cov, sigma * 0.25), 1e-14);
}

TEST(MeanStatMarginalTest, MixtureOfGroups) {
  BackgroundModel model = MakeModel(10, Vector{0.0}, Matrix{{1.0}});
  const Extension first = Extension::FromRows(10, {0, 1, 2, 3, 4});
  ASSERT_TRUE(model.UpdateLocation(first, Vector{2.0}).ok());
  // Extension straddles both groups: 2 rows at mean 2, 2 rows at mean 0.
  const Extension mixed = Extension::FromRows(10, {3, 4, 7, 8});
  const MeanStatisticMarginal marginal = model.MeanStatMarginal(mixed);
  EXPECT_NEAR(marginal.mean[0], 1.0, 1e-14);
  EXPECT_NEAR(marginal.cov(0, 0), 4.0 / 16.0, 1e-14);
}

TEST(DirectionalTermsTest, ReportsPerGroupValues) {
  BackgroundModel model = MakeModel(10, Vector{0.0}, Matrix{{2.0}});
  const Extension first = Extension::FromRows(10, {0, 1, 2});
  ASSERT_TRUE(model.UpdateLocation(first, Vector{1.0}).ok());
  const Extension probe = Extension::FromRows(10, {0, 1, 5});
  const std::vector<DirectionalTerm> terms =
      model.DirectionalTerms(probe, Vector{1.0}, Vector{1.0});
  ASSERT_EQ(terms.size(), 2u);
  size_t total = 0;
  for (const DirectionalTerm& t : terms) {
    EXPECT_NEAR(t.s, 2.0, 1e-14);
    total += t.count;
  }
  EXPECT_EQ(total, 3u);
}

TEST(LogDensityTest, MatchesManualGaussian) {
  BackgroundModel model = MakeModel(2, Vector{0.0}, Matrix{{1.0}});
  Matrix y(2, 1);
  y(0, 0) = 0.0;
  y(1, 0) = 1.0;
  // log N(0;0,1) + log N(1;0,1).
  const double expected =
      -0.5 * std::log(2.0 * M_PI) - 0.5 * std::log(2.0 * M_PI) - 0.5;
  EXPECT_NEAR(model.LogDensity(y), expected, 1e-12);
}

TEST(KlDivergenceTest, ZeroForIdenticalModels) {
  BackgroundModel model =
      MakeModel(5, Vector{1.0, 2.0}, Matrix::Identity(2));
  EXPECT_NEAR(model.KlDivergenceFrom(model), 0.0, 1e-12);
}

TEST(KlDivergenceTest, PositiveAfterUpdateAndMatchesClosedForm) {
  BackgroundModel prior = MakeModel(4, Vector{0.0}, Matrix{{1.0}});
  BackgroundModel posterior = prior;
  const Extension ext = Extension::FromRows(4, {0, 1});
  ASSERT_TRUE(posterior.UpdateLocation(ext, Vector{2.0}).ok());
  // KL(posterior || prior): 2 rows moved mean 0 -> 2 with unit variance:
  // KL per row = (mu1-mu0)^2/2 = 2.0; total 4.0.
  EXPECT_NEAR(posterior.KlDivergenceFrom(prior), 4.0, 1e-10);
  EXPECT_GT(posterior.KlDivergenceFrom(prior), 0.0);
}

TEST(MaxParameterDeltaTest, DetectsChanges) {
  BackgroundModel a = MakeModel(6, Vector{0.0}, Matrix{{1.0}});
  BackgroundModel b = a;
  EXPECT_NEAR(a.MaxParameterDelta(b), 0.0, 1e-15);
  const Extension ext = Extension::FromRows(6, {0, 1, 2});
  ASSERT_TRUE(b.UpdateLocation(ext, Vector{1.5}).ok());
  EXPECT_NEAR(a.MaxParameterDelta(b), 1.5, 1e-12);
}

TEST(NaturalParametersTest, MatchClosedForm) {
  Matrix sigma{{2.0, 0.0}, {0.0, 4.0}};
  BackgroundModel model = MakeModel(3, Vector{2.0, 8.0}, sigma);
  const Vector theta1 = model.NaturalTheta1(0);
  EXPECT_NEAR(theta1[0], 1.0, 1e-12);   // 2/2
  EXPECT_NEAR(theta1[1], 2.0, 1e-12);   // 8/4
  const Matrix theta2 = model.NaturalTheta2(0);
  EXPECT_NEAR(theta2(0, 0), -0.25, 1e-12);   // -1/(2*2)
  EXPECT_NEAR(theta2(1, 1), -0.125, 1e-12);  // -1/(2*4)
}

TEST(GroupCountsTest, CountsPerGroup) {
  BackgroundModel model = MakeModel(10, Vector{0.0}, Matrix{{1.0}});
  const Extension first = Extension::FromRows(10, {0, 1, 2, 3});
  ASSERT_TRUE(model.UpdateLocation(first, Vector{1.0}).ok());
  const Extension probe = Extension::FromRows(10, {2, 3, 4});
  const std::vector<size_t> counts = model.GroupCounts(probe);
  ASSERT_EQ(counts.size(), model.num_groups());
  size_t total = 0;
  for (size_t c : counts) total += c;
  EXPECT_EQ(total, 3u);
}

// --- Snapshot restore -------------------------------------------------------

TEST(RestoreFromPartsTest, RoundTripsModelState) {
  random::Rng rng(29);
  const size_t n = 50, dy = 3;
  Matrix y(n, dy);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dy; ++j) y(i, j) = rng.Gaussian();
  }
  Result<BackgroundModel> model = BackgroundModel::CreateFromData(y);
  ASSERT_TRUE(model.ok());
  Extension ext(n);
  for (size_t i = 5; i < 30; ++i) ext.Insert(i);
  const Vector w = rng.GaussianVector(dy).Normalized();
  const Vector anchor = model.Value().ExpectedSubgroupMean(ext);
  const double variance =
      0.7 * model.Value().ExpectedDirectionalVariance(ext, w, anchor);
  ASSERT_TRUE(model.Value().UpdateSpread(ext, w, anchor, variance).ok());

  std::vector<ParameterGroup> groups;
  for (size_t g = 0; g < model.Value().num_groups(); ++g) {
    groups.push_back(model.Value().group(g));
  }
  Result<BackgroundModel> restored =
      BackgroundModel::RestoreFromParts(n, dy, std::move(groups));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  ASSERT_EQ(restored.Value().num_groups(), model.Value().num_groups());
  for (size_t g = 0; g < model.Value().num_groups(); ++g) {
    EXPECT_EQ(restored.Value().group(g).mu, model.Value().group(g).mu);
    EXPECT_EQ(restored.Value().group(g).sigma, model.Value().group(g).sigma);
    EXPECT_EQ(restored.Value().group(g).rows, model.Value().group(g).rows);
    // Both factors are fresh factorizations of the same sigma.
    EXPECT_EQ(restored.Value().GroupCholesky(g).L(),
              model.Value().GroupCholesky(g).L());
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(restored.Value().GroupOf(i), model.Value().GroupOf(i));
  }
}

TEST(RestoreFromPartsTest, Validates) {
  const BackgroundModel model =
      MakeModel(10, Vector{0.0, 1.0}, Matrix{{2.0, 0.5}, {0.5, 1.0}});
  const ParameterGroup whole = model.group(0);

  // Rows not covering the universe.
  ParameterGroup partial = whole;
  partial.rows.Erase(3);
  EXPECT_FALSE(BackgroundModel::RestoreFromParts(10, 2, {partial}).ok());

  // Overlapping groups.
  EXPECT_FALSE(BackgroundModel::RestoreFromParts(10, 2, {whole, whole}).ok());

  // Dimension mismatch.
  ParameterGroup bad_mu = whole;
  bad_mu.mu = Vector(3);
  EXPECT_FALSE(BackgroundModel::RestoreFromParts(10, 2, {bad_mu}).ok());

  // A covariance that does not factorize.
  for (const Matrix& sigma :
       {Matrix{{-1.0, 0.0}, {0.0, 1.0}}, Matrix{{1.0, 2.0}, {2.0, 1.0}},
        Matrix{{0.0, 0.0}, {0.0, 0.0}}}) {
    ParameterGroup bad_sigma = whole;
    bad_sigma.sigma = sigma;
    Result<BackgroundModel> restored =
        BackgroundModel::RestoreFromParts(10, 2, {bad_sigma});
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }

  EXPECT_TRUE(BackgroundModel::RestoreFromParts(10, 2, {whole}).ok());
}

}  // namespace
}  // namespace sisd::model
