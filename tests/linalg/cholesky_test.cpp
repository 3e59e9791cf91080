#include "linalg/cholesky.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace sisd::linalg {
namespace {

Matrix RandomSpd(random::Rng* rng, size_t n, double ridge = 0.5) {
  Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng->Gaussian();
  }
  Matrix spd = a.MatMul(a.Transposed());
  for (size_t i = 0; i < n; ++i) spd(i, i) += ridge * double(n);
  return spd;
}

TEST(CholeskyTest, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]].
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.Value().L();
  EXPECT_NEAR(l(0, 0), 2.0, 1e-14);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-14);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-14);
  EXPECT_NEAR(l(0, 1), 0.0, 1e-14);
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_FALSE(Cholesky::Compute(indefinite).ok());
  Matrix negative{{-1.0}};
  EXPECT_FALSE(Cholesky::Compute(negative).ok());
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix rect(2, 3);
  Result<Cholesky> r = Cholesky::Compute(rect);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, SolveRecoversSolution) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Vector x_true{1.0, -2.0};
  const Vector b = a.MatVec(x_true);
  const Vector x = chol.Value().Solve(b);
  EXPECT_NEAR(MaxAbsDiff(x, x_true), 0.0, 1e-12);
}

TEST(CholeskyTest, LogDeterminantMatchesKnownValue) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};  // det = 8
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol.Value().LogDeterminant(), std::log(8.0), 1e-12);
}

TEST(CholeskyTest, InverseQuadraticFormMatchesExplicitInverse) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Vector b{1.0, 2.0};
  const Matrix inv = chol.Value().Inverse();
  EXPECT_NEAR(chol.Value().InverseQuadraticForm(b), inv.QuadraticForm(b),
              1e-12);
}

TEST(CholeskyTest, InverseTimesMatrixIsIdentity) {
  random::Rng rng(123);
  const Matrix a = RandomSpd(&rng, 5);
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Matrix prod = a.MatMul(chol.Value().Inverse());
  EXPECT_LT(MaxAbsDiff(prod, Matrix::Identity(5)), 1e-10);
}

TEST(CholeskyTest, SolveMatrixSolvesColumnwise) {
  random::Rng rng(7);
  const Matrix a = RandomSpd(&rng, 4);
  Matrix b(4, 2);
  for (size_t r = 0; r < 4; ++r) {
    b(r, 0) = rng.Gaussian();
    b(r, 1) = rng.Gaussian();
  }
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Matrix x = chol.Value().SolveMatrix(b);
  EXPECT_LT(MaxAbsDiff(a.MatMul(x), b), 1e-10);
}

TEST(CholeskyTest, ConvenienceWrappers) {
  Matrix a{{2.0, 0.0}, {0.0, 8.0}};
  EXPECT_NEAR(SpdLogDeterminant(a), std::log(16.0), 1e-12);
  const Matrix inv = SpdInverse(a);
  EXPECT_NEAR(inv(0, 0), 0.5, 1e-14);
  EXPECT_NEAR(inv(1, 1), 0.125, 1e-14);
  const Vector x = SpdSolve(a, Vector{2.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], 1.0, 1e-14);
}

/// The one-row-at-a-time column loop the factorization is defined by: every
/// entry accumulates `a(i, j) - sum_k L(i, k) L(j, k)` in ascending k. The
/// engine's four-row interleave must reproduce it bit for bit.
Matrix ReferenceFactor(const Matrix& a) {
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    l(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return l;
}

/// Dimensions covering every remainder of the four-row interleave, plus
/// the mammals target dimension.
const size_t kRefactorDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 124};

TEST(CholeskyRefactorTest, MatchesComputeAndReferenceBitwise) {
  for (size_t n : kRefactorDims) {
    random::Rng rng(4000 + n);
    const Matrix a = RandomSpd(&rng, n);
    Result<Cholesky> computed = Cholesky::Compute(a);
    ASSERT_TRUE(computed.ok()) << "n=" << n;
    Cholesky refactored;
    ASSERT_TRUE(refactored.Refactor(a).ok()) << "n=" << n;
    EXPECT_EQ(refactored.L(), computed.Value().L()) << "n=" << n;
    EXPECT_EQ(computed.Value().L(), ReferenceFactor(a)) << "n=" << n;
  }
}

TEST(CholeskyRefactorTest, ReusesOneFactorAcrossMatricesAndDimensions) {
  Cholesky chol;
  EXPECT_EQ(chol.dim(), 0u);
  // Same dimension twice (storage reused), then a different one, then back.
  for (size_t n : {7u, 7u, 16u, 3u, 124u, 7u}) {
    random::Rng rng(5000 + n + chol.dim());
    const Matrix a = RandomSpd(&rng, n);
    ASSERT_TRUE(chol.Refactor(a).ok()) << "n=" << n;
    EXPECT_EQ(chol.dim(), n);
    EXPECT_EQ(chol.L(), Cholesky::Compute(a).Value().L()) << "n=" << n;
    EXPECT_EQ(chol.LogDeterminant(),
              Cholesky::Compute(a).Value().LogDeterminant());
  }
}

TEST(CholeskyRefactorTest, RejectsNonSpdLikeCompute) {
  Matrix indefinite = Matrix::Identity(6);
  indefinite(4, 4) = -2.0;
  Cholesky chol;
  const Status status = chol.Refactor(indefinite);
  const Result<Cholesky> computed = Cholesky::Compute(indefinite);
  ASSERT_FALSE(status.ok());
  ASSERT_FALSE(computed.ok());
  EXPECT_EQ(status.code(), StatusCode::kNumericalError);
  EXPECT_EQ(computed.status().code(), StatusCode::kNumericalError);
  EXPECT_EQ(status.message(), computed.status().message());
  // A failed refactor leaves a factor that the next refactor fully rebuilds.
  random::Rng rng(6000);
  const Matrix a = RandomSpd(&rng, 6);
  ASSERT_TRUE(chol.Refactor(a).ok());
  EXPECT_EQ(chol.L(), Cholesky::Compute(a).Value().L());
  EXPECT_FALSE(chol.Refactor(Matrix(2, 3)).ok());
}

class CholeskyPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyPropertyTest, ReconstructsMatrix) {
  random::Rng rng(1000 + GetParam());
  const Matrix a = RandomSpd(&rng, GetParam());
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.Value().L();
  const Matrix reconstructed = l.MatMul(l.Transposed());
  EXPECT_LT(MaxAbsDiff(reconstructed, a), 1e-9 * std::max(1.0, a.MaxAbs()));
}

TEST_P(CholeskyPropertyTest, SolveResidualIsTiny) {
  random::Rng rng(2000 + GetParam());
  const Matrix a = RandomSpd(&rng, GetParam());
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Vector b = rng.GaussianVector(GetParam());
  const Vector x = chol.Value().Solve(b);
  EXPECT_LT(MaxAbsDiff(a.MatVec(x), b), 1e-9 * std::max(1.0, b.MaxAbs()));
}

TEST_P(CholeskyPropertyTest, ForwardSolveWhitens) {
  random::Rng rng(3000 + GetParam());
  const Matrix a = RandomSpd(&rng, GetParam());
  Result<Cholesky> chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  const Vector b = rng.GaussianVector(GetParam());
  // |L^{-1} b|^2 == b' A^{-1} b.
  const Vector z = chol.Value().ForwardSolve(b);
  EXPECT_NEAR(z.SquaredNorm(), chol.Value().InverseQuadraticForm(b),
              1e-9 * std::max(1.0, z.SquaredNorm()));
}

INSTANTIATE_TEST_SUITE_P(Dims, CholeskyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

}  // namespace
}  // namespace sisd::linalg
