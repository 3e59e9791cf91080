#include "optimize/spread_objective.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "pattern/patterns.hpp"
#include "random/rng.hpp"
#include "si/interestingness.hpp"

namespace sisd::optimize {
namespace {

using linalg::Matrix;
using linalg::Vector;
using model::BackgroundModel;
using pattern::Extension;

BackgroundModel MakeModel(size_t n, size_t d, uint64_t seed) {
  random::Rng rng(seed);
  Matrix a(d, d);
  for (size_t r = 0; r < d; ++r) {
    for (size_t c = 0; c < d; ++c) a(r, c) = rng.Gaussian();
  }
  Matrix sigma = a.MatMul(a.Transposed());
  for (size_t i = 0; i < d; ++i) sigma(i, i) += double(d);
  Result<BackgroundModel> model =
      BackgroundModel::Create(n, rng.GaussianVector(d), sigma);
  model.status().CheckOK();
  return std::move(model).MoveValue();
}

Matrix MakeData(size_t n, size_t d, uint64_t seed) {
  random::Rng rng(seed);
  Matrix y(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) y(i, c) = rng.Gaussian(0.0, 1.0 + 0.3 * c);
  }
  return y;
}

TEST(SpreadObjectiveTest, ValueMatchesSiModuleIc) {
  const size_t n = 40, d = 3;
  BackgroundModel model = MakeModel(n, d, 1);
  const Matrix y = MakeData(n, d, 2);
  std::vector<size_t> rows;
  for (size_t i = 0; i < 15; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(n, rows);
  SpreadObjective objective(model, ext, y);

  random::Rng rng(3);
  for (int rep = 0; rep < 5; ++rep) {
    const Vector w = rng.UnitSphere(d);
    const double observed = objective.ObservedVariance(w);
    const double expected_ic = si::SpreadIC(model, ext, w, observed);
    // One Eq. 19 over the same power sums: bit-identical.
    EXPECT_EQ(objective.Value(w), expected_ic) << "rep " << rep;
  }
}

TEST(SpreadObjectiveTest, DirectionBelowTheSupportEdgeIsInfeasible) {
  const size_t n = 30, d = 2;
  const BackgroundModel model = MakeModel(n, d, 16);
  // A zero observed variance has u = -beta / alpha, with beta zero up to
  // rounding for one parameter group: below the edge whatever its sign.
  Matrix y = MakeData(n, d, 17);
  std::vector<size_t> rows;
  for (size_t i = 0; i < 10; ++i) {
    rows.push_back(i);
    y(i, 0) = 1.5;  // no spread along the first axis
  }
  SpreadObjective objective(model, Extension::FromRows(n, rows), y);

  const Vector flat{1.0, 0.0};
  EXPECT_EQ(objective.ObservedVariance(flat), 0.0);
  const double minus_inf = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(objective.Value(flat), minus_inf);
  Vector gradient{7.0, 7.0};
  EXPECT_EQ(objective.ValueAndGradient(flat, &gradient), minus_inf);
  EXPECT_EQ(gradient, Vector(d));
  EXPECT_TRUE(std::isfinite(objective.Value(Vector{0.0, 1.0})));
}

TEST(SpreadObjectiveTest, ObservedVarianceMatchesPatternStatistic) {
  const size_t n = 30, d = 2;
  BackgroundModel model = MakeModel(n, d, 4);
  const Matrix y = MakeData(n, d, 5);
  const Extension ext = Extension::FromRows(n, {0, 3, 7, 9, 12, 20});
  SpreadObjective objective(model, ext, y);
  const Vector w = Vector{0.6, 0.8};
  EXPECT_NEAR(objective.ObservedVariance(w),
              pattern::SubgroupVarianceAlong(y, ext, w), 1e-12);
}

TEST(SpreadObjectiveTest, GradientMatchesFiniteDifferences) {
  const size_t n = 50, d = 4;
  BackgroundModel model = MakeModel(n, d, 6);
  // Split into two groups so the gradient sums over heterogeneous terms.
  const Extension first = Extension::FromRows(n, {0, 1, 2, 3, 4, 5, 6, 7});
  model.UpdateLocation(first, Vector(d, 0.5)).status().CheckOK();

  const Matrix y = MakeData(n, d, 7);
  std::vector<size_t> rows{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const Extension ext = Extension::FromRows(n, rows);
  SpreadObjective objective(model, ext, y);

  random::Rng rng(8);
  const double h = 1e-6;
  for (int rep = 0; rep < 8; ++rep) {
    const Vector w = rng.UnitSphere(d);
    Vector gradient(d);
    objective.ValueAndGradient(w, &gradient);
    for (size_t k = 0; k < d; ++k) {
      Vector wp = w, wm = w;
      wp[k] += h;
      wm[k] -= h;
      const double numeric =
          (objective.Value(wp) - objective.Value(wm)) / (2.0 * h);
      EXPECT_NEAR(gradient[k], numeric,
                  1e-4 * std::max(1.0, std::fabs(numeric)))
          << "rep " << rep << " coord " << k;
    }
  }
}

TEST(SpreadObjectiveTest, RestrictedMatchesManualSubproblem) {
  const size_t n = 40, d = 4;
  BackgroundModel model = MakeModel(n, d, 9);
  const Matrix y = MakeData(n, d, 10);
  const Extension ext = Extension::FromRows(n, {1, 2, 3, 4, 5, 6, 7});
  SpreadObjective full(model, ext, y);
  SpreadObjective reduced = full.Restricted({1, 3});

  // Value of the reduced problem at (cos t, sin t) equals the full problem
  // at the embedded vector.
  for (double theta : {0.0, 0.7, 1.9, 3.0}) {
    const Vector w2{std::cos(theta), std::sin(theta)};
    Vector w4(4);
    w4[1] = w2[0];
    w4[3] = w2[1];
    EXPECT_NEAR(reduced.Value(w2), full.Value(w4), 1e-10);
  }
}

TEST(SpreadObjectiveTest, MixtureCovarianceAveragesGroups) {
  const size_t n = 20, d = 2;
  BackgroundModel model = MakeModel(n, d, 11);
  const Matrix y = MakeData(n, d, 12);
  const Extension ext = Extension::FromRows(n, {0, 1, 2, 3});
  SpreadObjective objective(model, ext, y);
  EXPECT_LT(MaxAbsDiff(objective.mixture_covariance(),
                       model.CovarianceOf(0)),
            1e-12);
  EXPECT_EQ(objective.subgroup_size(), 4u);
  EXPECT_EQ(objective.dim(), d);
}

TEST(SpreadObjectiveTest, ScaleInvarianceAcrossSphere) {
  // IC is defined on the sphere; Value at w and -w must agree (statistic is
  // quadratic in w).
  const size_t n = 30, d = 3;
  BackgroundModel model = MakeModel(n, d, 13);
  const Matrix y = MakeData(n, d, 14);
  const Extension ext = Extension::FromRows(n, {0, 1, 2, 3, 4, 5});
  SpreadObjective objective(model, ext, y);
  random::Rng rng(15);
  for (int rep = 0; rep < 5; ++rep) {
    const Vector w = rng.UnitSphere(d);
    Vector neg = w;
    neg *= -1.0;
    EXPECT_NEAR(objective.Value(w), objective.Value(neg), 1e-12);
  }
}

}  // namespace
}  // namespace sisd::optimize
