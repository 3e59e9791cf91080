/// \file cholesky.hpp
/// \brief Cholesky (LL') factorization of symmetric positive-definite
/// matrices, with solve / inverse / log-determinant.
///
/// The background model needs, per candidate subgroup, the log-determinant of
/// and a quadratic form with the covariance of the subgroup-mean statistic
/// (Eq. 13 of the paper); both come out of one factorization.

#ifndef SISD_LINALG_CHOLESKY_HPP_
#define SISD_LINALG_CHOLESKY_HPP_

#include "common/status.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace sisd::linalg {

/// \brief Lower-triangular Cholesky factor of an SPD matrix.
///
/// Construct via `Cholesky::Compute`, or default-construct scratch and
/// `Refactor` it in place. All query methods require a successfully
/// computed factorization.
class Cholesky {
 public:
  /// An empty (0 x 0) factor: scratch for `Refactor`.
  Cholesky() = default;

  /// Factorizes symmetric positive-definite `a` as `L L'`.
  /// Returns NumericalError if `a` is not (numerically) SPD.
  static Result<Cholesky> Compute(const Matrix& a);

  /// `Compute` into this object, reusing its storage when the dimension is
  /// unchanged (no allocation then). Bit-identical to `Compute`, which
  /// delegates here. On error the factor is unspecified and must be
  /// refactored before any query.
  Status Refactor(const Matrix& a);

  /// Dimension of the factored matrix.
  size_t dim() const { return l_.rows(); }

  /// The lower-triangular factor `L`.
  const Matrix& L() const { return l_; }

  /// Solves `A x = b` using forward + back substitution.
  Vector Solve(const Vector& b) const;

  /// Solves `A X = B` column-wise.
  Matrix SolveMatrix(const Matrix& b) const;

  /// Solves `L z = b` (forward substitution only). Useful for whitening:
  /// if `A = L L'` and `z = L^{-1}(x - mu)` then `z ~ N(0, I)`.
  Vector ForwardSolve(const Vector& b) const;

  /// Allocation-free forward solve into `*z` (resized if needed). `z` must
  /// not alias `b`.
  void ForwardSolveInto(const Vector& b, Vector* z) const;

  /// The inverse `A^{-1}` as a dense (symmetric) matrix.
  Matrix Inverse() const;

  /// `log |A| = 2 * sum_i log L_ii`.
  double LogDeterminant() const;

  /// Quadratic form with the inverse: `b' A^{-1} b`, via one forward solve.
  double InverseQuadraticForm(const Vector& b) const;

  /// Allocation-free variant: uses `*scratch` for the forward solve.
  /// Bit-identical to `InverseQuadraticForm(b)`.
  double InverseQuadraticForm(const Vector& b, Vector* scratch) const;

 private:
  Matrix l_;
};

/// \brief Convenience: inverse of an SPD matrix (aborts if not SPD).
Matrix SpdInverse(const Matrix& a);

/// \brief Convenience: log-determinant of an SPD matrix (aborts if not SPD).
double SpdLogDeterminant(const Matrix& a);

/// \brief Solves the SPD system `A x = b` (aborts if not SPD).
Vector SpdSolve(const Matrix& a, const Vector& b);

}  // namespace sisd::linalg

#endif  // SISD_LINALG_CHOLESKY_HPP_
