#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

namespace sisd::linalg {
namespace {

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.IsSquare());
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);

  Matrix c(2, 2, 7.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 7.0);
  EXPECT_TRUE(c.IsSquare());

  Matrix init{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(init(1, 0), 3.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(id.Trace(), 3.0);

  Matrix d = Matrix::Diagonal(Vector{2.0, 5.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 0.0);
  EXPECT_EQ(d.DiagonalVector(), (Vector{2.0, 5.0}));
}

TEST(MatrixTest, OuterProduct) {
  Matrix o = Matrix::OuterProduct(Vector{1.0, 2.0}, Vector{3.0, 4.0});
  EXPECT_DOUBLE_EQ(o(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(o(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(o(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(o(1, 1), 8.0);
}

TEST(MatrixTest, RowAndColAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.Row(0), (Vector{1.0, 2.0}));
  EXPECT_EQ(m.Col(1), (Vector{2.0, 4.0}));
  m.SetRow(0, Vector{9.0, 8.0});
  EXPECT_EQ(m.Row(0), (Vector{9.0, 8.0}));
}

TEST(MatrixTest, InPlaceArithmetic) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Matrix b{{1.0, 2.0}, {3.0, 4.0}};
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 0), 0.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
}

TEST(MatrixTest, AddOuterIsSymmetricRank1) {
  Matrix a = Matrix::Identity(2);
  a.AddOuter(Vector{1.0, 2.0}, 3.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);    // 1 + 3*1
  EXPECT_DOUBLE_EQ(a(0, 1), 6.0);    // 3*2
  EXPECT_DOUBLE_EQ(a(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 13.0);   // 1 + 3*4
  EXPECT_TRUE(a.IsSymmetric());
}

TEST(MatrixTest, MatVec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.MatVec(Vector{1.0, 1.0}), (Vector{3.0, 7.0}));
  EXPECT_EQ(m.TransposeMatVec(Vector{1.0, 1.0}), (Vector{4.0, 6.0}));
}

TEST(MatrixTest, MatMul) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  Matrix ab = a.MatMul(b);
  EXPECT_DOUBLE_EQ(ab(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 3.0);

  Matrix rect{{1.0, 2.0, 3.0}};
  Matrix col{{1.0}, {1.0}, {1.0}};
  Matrix prod = rect.MatMul(col);
  EXPECT_EQ(prod.rows(), 1u);
  EXPECT_EQ(prod.cols(), 1u);
  EXPECT_DOUBLE_EQ(prod(0, 0), 6.0);
}

TEST(MatrixTest, Transposed) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, QuadraticAndBilinearForms) {
  Matrix m{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x{1.0, 2.0};
  // x' M x = 2 + 2 + 2 + 12 = 18.
  EXPECT_DOUBLE_EQ(m.QuadraticForm(x), 18.0);
  const Vector y{1.0, 0.0};
  // x' M y = x . (M y) = (1,2) . (2,1) = 4.
  EXPECT_DOUBLE_EQ(m.BilinearForm(x, y), 4.0);
}

TEST(MatrixTest, Submatrix) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  Matrix sub = m.Submatrix({0, 2});
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_DOUBLE_EQ(sub(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(sub(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(sub(1, 1), 9.0);
}

TEST(MatrixTest, SymmetryHelpers) {
  Matrix m{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_TRUE(m.IsSymmetric());
  m(0, 1) = 2.5;
  EXPECT_FALSE(m.IsSymmetric(1e-12));
  m.Symmetrize();
  EXPECT_TRUE(m.IsSymmetric());
  EXPECT_DOUBLE_EQ(m(0, 1), 2.25);
}

TEST(MatrixTest, MaxAbsAndFiniteness) {
  Matrix m{{1.0, -5.0}, {2.0, 3.0}};
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 5.0);
  EXPECT_TRUE(m.AllFinite());
  m(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(m.AllFinite());
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 2.5}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 0.5);
}

TEST(MatrixTest, OutOfPlaceArithmetic) {
  Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ((a + b)(0, 1), 1.0);
  EXPECT_DOUBLE_EQ((a - b)(0, 1), -1.0);
  EXPECT_DOUBLE_EQ((a * 3.0)(0, 0), 3.0);
  EXPECT_DOUBLE_EQ((3.0 * a)(1, 1), 3.0);
}

}  // namespace
}  // namespace sisd::linalg
