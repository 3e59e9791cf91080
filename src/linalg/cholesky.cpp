#include "linalg/cholesky.hpp"

#include <cmath>

#include "common/strings.hpp"

namespace sisd::linalg {

Result<Cholesky> Cholesky::Compute(const Matrix& a) {
  Cholesky chol;
  Status status = chol.Refactor(a);
  if (!status.ok()) return status;
  return chol;
}

Status Cholesky::Refactor(const Matrix& a) {
  if (!a.IsSquare()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  // Every write below lands on or below the diagonal, so a reused factor
  // keeps the zero upper triangle a fresh one starts with.
  if (l_.rows() != n) l_ = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    const double* lrow_j = l_.RowData(j);
    for (size_t k = 0; k < j; ++k) diag -= lrow_j[k] * lrow_j[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) {
      return Status::NumericalError(StrFormat(
          "matrix not positive definite at pivot %zu (value %.6g)", j, diag));
    }
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    // Four rows per pass: each entry keeps its own accumulator in ascending
    // k order (so every bit matches the one-row loop), and the four
    // independent dependency chains overlap in the pipeline.
    size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      const double* r0 = l_.RowData(i);
      const double* r1 = l_.RowData(i + 1);
      const double* r2 = l_.RowData(i + 2);
      const double* r3 = l_.RowData(i + 3);
      double acc0 = a(i, j);
      double acc1 = a(i + 1, j);
      double acc2 = a(i + 2, j);
      double acc3 = a(i + 3, j);
      for (size_t k = 0; k < j; ++k) {
        const double ljk = lrow_j[k];
        acc0 -= r0[k] * ljk;
        acc1 -= r1[k] * ljk;
        acc2 -= r2[k] * ljk;
        acc3 -= r3[k] * ljk;
      }
      l_(i, j) = acc0 / ljj;
      l_(i + 1, j) = acc1 / ljj;
      l_(i + 2, j) = acc2 / ljj;
      l_(i + 3, j) = acc3 / ljj;
    }
    for (; i < n; ++i) {
      double acc = a(i, j);
      const double* lrow_i = l_.RowData(i);
      for (size_t k = 0; k < j; ++k) acc -= lrow_i[k] * lrow_j[k];
      l_(i, j) = acc / ljj;
    }
  }
  return Status::OK();
}

Vector Cholesky::Solve(const Vector& b) const {
  Vector z = ForwardSolve(b);
  // Back substitution: L' x = z.
  const size_t n = dim();
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double acc = z[ii];
    for (size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::SolveMatrix(const Matrix& b) const {
  SISD_CHECK(b.rows() == dim());
  Matrix out(b.rows(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    Vector col = b.Col(c);
    Vector sol = Solve(col);
    for (size_t r = 0; r < b.rows(); ++r) out(r, c) = sol[r];
  }
  return out;
}

Vector Cholesky::ForwardSolve(const Vector& b) const {
  Vector z;
  ForwardSolveInto(b, &z);
  return z;
}

void Cholesky::ForwardSolveInto(const Vector& b, Vector* out) const {
  SISD_CHECK(b.size() == dim());
  SISD_CHECK(out != nullptr && out != &b);
  const size_t n = dim();
  if (out->size() != n) *out = Vector(n);
  Vector& z = *out;
  for (size_t i = 0; i < n; ++i) {
    double acc = b[i];
    const double* lrow = l_.RowData(i);
    for (size_t k = 0; k < i; ++k) acc -= lrow[k] * z[k];
    z[i] = acc / lrow[i];
  }
}

Matrix Cholesky::Inverse() const {
  const size_t n = dim();
  Matrix inv(n, n);
  // Solve A x = e_i for each basis vector.
  Vector e(n);
  for (size_t i = 0; i < n; ++i) {
    e.Fill(0.0);
    e[i] = 1.0;
    Vector x = Solve(e);
    for (size_t r = 0; r < n; ++r) inv(r, i) = x[r];
  }
  inv.Symmetrize();
  return inv;
}

double Cholesky::LogDeterminant() const {
  double acc = 0.0;
  for (size_t i = 0; i < dim(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

double Cholesky::InverseQuadraticForm(const Vector& b) const {
  Vector z = ForwardSolve(b);
  return z.SquaredNorm();
}

double Cholesky::InverseQuadraticForm(const Vector& b,
                                      Vector* scratch) const {
  ForwardSolveInto(b, scratch);
  return scratch->SquaredNorm();
}

Matrix SpdInverse(const Matrix& a) {
  Result<Cholesky> chol = Cholesky::Compute(a);
  chol.status().CheckOK();
  return chol.Value().Inverse();
}

double SpdLogDeterminant(const Matrix& a) {
  Result<Cholesky> chol = Cholesky::Compute(a);
  chol.status().CheckOK();
  return chol.Value().LogDeterminant();
}

Vector SpdSolve(const Matrix& a, const Vector& b) {
  Result<Cholesky> chol = Cholesky::Compute(a);
  chol.status().CheckOK();
  return chol.Value().Solve(b);
}

}  // namespace sisd::linalg
