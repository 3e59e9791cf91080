#include "optimize/sphere_optimizer.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace sisd::optimize {
namespace {

using linalg::Matrix;
using linalg::Vector;
using model::BackgroundModel;
using pattern::Extension;

/// Builds a scenario where the subgroup's empirical variance deviates from
/// the model expectation strongly along a known direction.
struct Scenario {
  BackgroundModel model;
  Matrix y;
  Extension ext{0};
  Vector planted;
};

Scenario MakePlantedScenario(size_t n, size_t d, double planted_scale,
                             uint64_t seed) {
  random::Rng rng(seed);
  Result<BackgroundModel> model =
      BackgroundModel::Create(n, Vector(d), Matrix::Identity(d));
  model.status().CheckOK();

  Vector planted = rng.UnitSphere(d);
  Matrix y(n, d);
  for (size_t i = 0; i < n; ++i) {
    // Isotropic noise plus an extra (or suppressed) component along the
    // planted direction.
    Vector row = rng.GaussianVector(d);
    const double along = row.Dot(planted);
    row.AddScaled(planted, (planted_scale - 1.0) * along);
    y.SetRow(i, row);
  }
  Scenario s{std::move(model).MoveValue(), std::move(y), Extension(n),
             std::move(planted)};
  std::vector<size_t> rows;
  for (size_t i = 0; i < n / 2; ++i) rows.push_back(i);
  s.ext = Extension::FromRows(n, rows);
  return s;
}

TEST(SphereOptimizerTest, OneDimensionalShortcut) {
  Result<BackgroundModel> model =
      BackgroundModel::Create(10, Vector{0.0}, Matrix{{1.0}});
  model.status().CheckOK();
  random::Rng rng(1);
  Matrix y(10, 1);
  for (size_t i = 0; i < 10; ++i) y(i, 0) = rng.Gaussian();
  SpreadObjective objective(model.Value(),
                            Extension::FromRows(10, {0, 1, 2, 3}), y);
  const SphereOptimum optimum =
      MaximizeOnSphere(objective, SphereOptimizerConfig{});
  EXPECT_EQ(optimum.direction.size(), 1u);
  EXPECT_DOUBLE_EQ(optimum.direction[0], 1.0);
  EXPECT_EQ(optimum.starts, 1);
}

TEST(SphereOptimizerTest, RecoversPlantedHighVarianceDirection) {
  Scenario s = MakePlantedScenario(200, 4, 3.0, 2);
  SpreadObjective objective(s.model, s.ext, s.y);
  const SphereOptimum optimum =
      MaximizeOnSphere(objective, SphereOptimizerConfig{});
  EXPECT_NEAR(optimum.direction.Norm(), 1.0, 1e-9);
  // Up to sign, the found direction aligns with the planted one.
  EXPECT_GT(std::fabs(optimum.direction.Dot(s.planted)), 0.9);
}

TEST(SphereOptimizerTest, RecoversPlantedLowVarianceDirection) {
  Scenario s = MakePlantedScenario(200, 4, 0.15, 3);
  SpreadObjective objective(s.model, s.ext, s.y);
  const SphereOptimum optimum =
      MaximizeOnSphere(objective, SphereOptimizerConfig{});
  EXPECT_GT(std::fabs(optimum.direction.Dot(s.planted)), 0.9);
}

TEST(SphereOptimizerTest, BeatsOrMatchesAllSeedDirections) {
  Scenario s = MakePlantedScenario(150, 5, 2.0, 4);
  SpreadObjective objective(s.model, s.ext, s.y);
  const SphereOptimum optimum =
      MaximizeOnSphere(objective, SphereOptimizerConfig{});
  random::Rng rng(5);
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_GE(optimum.value, objective.Value(rng.UnitSphere(5)) - 1e-9);
  }
}

TEST(SphereOptimizerTest, DeterministicForFixedSeed) {
  Scenario s = MakePlantedScenario(100, 3, 2.5, 6);
  SpreadObjective objective(s.model, s.ext, s.y);
  SphereOptimizerConfig config;
  config.seed = 77;
  const SphereOptimum a = MaximizeOnSphere(objective, config);
  const SphereOptimum b = MaximizeOnSphere(objective, config);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.direction, b.direction);
}

TEST(SphereOptimizerTest, NoFeasibleDirectionIsNotAscended) {
  // Identical rows: every direction has zero observed variance, below the
  // IC's support edge, so no start is ascended and nothing is found.
  Scenario s = MakePlantedScenario(40, 3, 1.0, 9);
  for (size_t i = 0; i < 20; ++i) s.y.SetRow(i, Vector{0.3, -0.1, 0.2});
  SpreadObjective objective(s.model, s.ext, s.y);
  const double minus_inf = -std::numeric_limits<double>::infinity();
  const SphereOptimum dense =
      MaximizeOnSphere(objective, SphereOptimizerConfig{});
  EXPECT_EQ(dense.value, minus_inf);
  EXPECT_EQ(dense.iterations, 0);
  EXPECT_GT(dense.starts, 0);
  EXPECT_EQ(dense.direction.size(), 0u);
  const SphereOptimum sparse = MaximizePairSparse(objective, nullptr);
  EXPECT_EQ(sparse.value, minus_inf);
  EXPECT_EQ(sparse.direction.size(), 0u);
}

TEST(PairSparseTest, FindsPlantedPair) {
  // Plant extra variance exactly in the (1, 3) coordinate plane.
  const size_t n = 300, d = 5;
  random::Rng rng(7);
  Result<BackgroundModel> model =
      BackgroundModel::Create(n, Vector(d), Matrix::Identity(d));
  model.status().CheckOK();
  Matrix y(n, d);
  for (size_t i = 0; i < n; ++i) {
    Vector row = rng.GaussianVector(d);
    const double boost = rng.Gaussian(0.0, 1.8);
    row[1] += boost;
    row[3] += 0.8 * boost;
    y.SetRow(i, row);
  }
  std::vector<size_t> rows;
  for (size_t i = 0; i < 150; ++i) rows.push_back(i);
  SpreadObjective objective(model.Value(), Extension::FromRows(n, rows), y);

  std::pair<size_t, size_t> chosen{99, 99};
  const SphereOptimum optimum = MaximizePairSparse(objective, &chosen);
  EXPECT_EQ(chosen.first, 1u);
  EXPECT_EQ(chosen.second, 3u);
  // Direction is supported on the chosen pair only.
  for (size_t k = 0; k < d; ++k) {
    if (k != chosen.first && k != chosen.second) {
      EXPECT_NEAR(optimum.direction[k], 0.0, 1e-12);
    }
  }
  EXPECT_NEAR(optimum.direction.Norm(), 1.0, 1e-9);
}

TEST(PairSparseTest, PairValueNeverExceedsDenseOptimum) {
  Scenario s = MakePlantedScenario(150, 4, 2.2, 8);
  SpreadObjective objective(s.model, s.ext, s.y);
  const SphereOptimum dense =
      MaximizeOnSphere(objective, SphereOptimizerConfig{});
  const SphereOptimum sparse = MaximizePairSparse(objective, nullptr);
  // The 2-sparse optimum is a restriction: cannot beat the dense optimum
  // (allow tiny slack for optimizer tolerance).
  EXPECT_LE(sparse.value, dense.value + 1e-6);
}

}  // namespace
}  // namespace sisd::optimize
