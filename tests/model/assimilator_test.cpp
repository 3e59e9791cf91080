#include "model/assimilator.hpp"

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace sisd::model {
namespace {

using linalg::Matrix;
using linalg::Vector;
using pattern::Extension;

PatternAssimilator MakeAssimilator(size_t n, size_t d) {
  Result<BackgroundModel> model =
      BackgroundModel::Create(n, Vector(d), Matrix::Identity(d));
  model.status().CheckOK();
  return PatternAssimilator(std::move(model).MoveValue());
}

TEST(AssimilatorTest, AddLocationAppliesImmediately) {
  PatternAssimilator assim = MakeAssimilator(10, 2);
  const Extension ext = Extension::FromRows(10, {0, 1, 2});
  ASSERT_TRUE(assim.AddLocationPattern(ext, Vector{1.0, -1.0}).ok());
  EXPECT_EQ(assim.num_constraints(), 1u);
  EXPECT_NEAR(assim.MaxConstraintViolation(), 0.0, 1e-12);
}

TEST(AssimilatorTest, AddSpreadAppliesImmediately) {
  PatternAssimilator assim = MakeAssimilator(10, 2);
  const Extension ext = Extension::FromRows(10, {0, 1, 2, 3});
  ASSERT_TRUE(assim
                  .AddSpreadPattern(ext, Vector{1.0, 0.0}, Vector{0.0, 0.0},
                                    0.4)
                  .ok());
  EXPECT_EQ(assim.num_constraints(), 1u);
  EXPECT_NEAR(assim.MaxConstraintViolation(), 0.0, 1e-9);
}

TEST(AssimilatorTest, NonOverlappingPatternsConvergeInOneSweep) {
  PatternAssimilator assim = MakeAssimilator(20, 1);
  ASSERT_TRUE(assim
                  .AddLocationPattern(Extension::FromRows(20, {0, 1, 2}),
                                      Vector{2.0})
                  .ok());
  ASSERT_TRUE(assim
                  .AddLocationPattern(Extension::FromRows(20, {5, 6, 7}),
                                      Vector{-1.0})
                  .ok());
  Result<RefitStats> stats = assim.Refit();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.Value().converged);
  EXPECT_EQ(stats.Value().sweeps, 1);  // already at the fixpoint
  EXPECT_NEAR(assim.MaxConstraintViolation(), 0.0, 1e-12);
}

TEST(AssimilatorTest, OverlappingLocationPatternsConverge) {
  PatternAssimilator assim = MakeAssimilator(20, 1);
  ASSERT_TRUE(assim
                  .AddLocationPattern(Extension::FromRows(20, {0, 1, 2, 3}),
                                      Vector{2.0})
                  .ok());
  ASSERT_TRUE(assim
                  .AddLocationPattern(Extension::FromRows(20, {2, 3, 4, 5}),
                                      Vector{-1.0})
                  .ok());
  // After the second add, the first constraint is violated; coordinate
  // descent must restore both.
  Result<RefitStats> stats = assim.Refit(200, 1e-10);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.Value().converged);
  EXPECT_LT(assim.MaxConstraintViolation(), 1e-7);
}

TEST(AssimilatorTest, OverlappingLocationAndSpreadConverge) {
  PatternAssimilator assim = MakeAssimilator(30, 2);
  const Extension a = Extension::FromRows(30, {0, 1, 2, 3, 4, 5});
  const Extension b = Extension::FromRows(30, {4, 5, 6, 7, 8, 9});
  ASSERT_TRUE(assim.AddLocationPattern(a, Vector{1.0, 0.0}).ok());
  ASSERT_TRUE(assim
                  .AddSpreadPattern(b, Vector{0.0, 1.0}, Vector{0.0, 0.5},
                                    0.3)
                  .ok());
  ASSERT_TRUE(assim.AddLocationPattern(b, Vector{0.5, 0.5}).ok());
  Result<RefitStats> stats = assim.Refit(300, 1e-10);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.Value().converged);
  EXPECT_LT(assim.MaxConstraintViolation(), 1e-6);
}

TEST(AssimilatorTest, RefitFromScratchReproducesModel) {
  PatternAssimilator assim = MakeAssimilator(15, 1);
  ASSERT_TRUE(assim
                  .AddLocationPattern(Extension::FromRows(15, {0, 1, 2}),
                                      Vector{1.0})
                  .ok());
  ASSERT_TRUE(assim
                  .AddLocationPattern(Extension::FromRows(15, {2, 3, 4}),
                                      Vector{2.0})
                  .ok());
  ASSERT_TRUE(assim.Refit(100, 1e-12).ok());
  const BackgroundModel snapshot = assim.model();
  Result<RefitStats> stats = assim.RefitFromScratch(100, 1e-12);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.Value().converged);
  EXPECT_LT(assim.model().MaxParameterDelta(snapshot), 1e-7);
}

TEST(AssimilatorTest, ManyPatternsKeepGroupCountBounded) {
  // Disjoint patterns: group count grows by at most one per pattern.
  PatternAssimilator assim = MakeAssimilator(100, 1);
  for (size_t k = 0; k < 10; ++k) {
    const Extension ext =
        Extension::FromRows(100, {k * 5, k * 5 + 1, k * 5 + 2});
    ASSERT_TRUE(assim.AddLocationPattern(ext, Vector{double(k)}).ok());
  }
  EXPECT_LE(assim.model().num_groups(), 11u);
  EXPECT_NEAR(assim.MaxConstraintViolation(), 0.0, 1e-12);
}

TEST(AssimilatorTest, WarmRefitAgreesWithRefitFromScratch) {
  random::Rng rng(5);
  const size_t n = 60, dy = 4;
  Matrix y(n, dy);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dy; ++j) y(i, j) = rng.Gaussian();
  }
  Result<BackgroundModel> model = BackgroundModel::CreateFromData(y);
  ASSERT_TRUE(model.ok());
  PatternAssimilator warm(std::move(model).MoveValue());

  // Overlapping location + spread constraints so cyclic descent has real
  // work to do on a refit.
  Extension a(n), b(n);
  for (size_t i = 0; i < 25; ++i) a.Insert(i);
  for (size_t i = 15; i < 50; ++i) b.Insert(i);
  const Vector mean_a(dy, 0.4);
  const Vector mean_b(dy, -0.3);
  const Vector direction = rng.GaussianVector(dy).Normalized();
  ASSERT_TRUE(warm.AddLocationPattern(a, mean_a).ok());
  ASSERT_TRUE(warm.AddSpreadPattern(b, direction, mean_b, 0.5).ok());
  ASSERT_TRUE(warm.AddLocationPattern(b, mean_b).ok());

  PatternAssimilator scratch = warm;
  Result<RefitStats> warm_stats = warm.Refit(200, 1e-12);
  ASSERT_TRUE(warm_stats.ok());
  EXPECT_TRUE(warm_stats.Value().converged);
  Result<RefitStats> scratch_stats = scratch.RefitFromScratch(200, 1e-12);
  ASSERT_TRUE(scratch_stats.ok());
  EXPECT_TRUE(scratch_stats.Value().converged);

  // Warm start must land on the same joint minimum-KL model, in (usually
  // strictly) fewer sweeps.
  EXPECT_LT(warm.model().MaxParameterDelta(scratch.model()), 1e-8);
  EXPECT_LE(warm_stats.Value().sweeps, scratch_stats.Value().sweeps);
  EXPECT_LT(warm.MaxConstraintViolation(), 1e-8);
}

}  // namespace
}  // namespace sisd::model
