/// \file matrix.hpp
/// \brief Dense row-major matrix with the operations needed by the FORSIED
/// background model: products, symmetric rank-1 updates, quadratic forms.

#ifndef SISD_LINALG_MATRIX_HPP_
#define SISD_LINALG_MATRIX_HPP_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "linalg/vector.hpp"

namespace sisd::linalg {

/// \brief Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Creates an empty (0x0) matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a zero matrix of shape `rows x cols`.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Creates a constant matrix of shape `rows x cols`.
  Matrix(size_t rows, size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Creates a matrix from nested initializer lists (row major).
  /// All rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Returns the `n x n` identity matrix.
  static Matrix Identity(size_t n);

  /// Returns a diagonal matrix with `diag` on the diagonal.
  static Matrix Diagonal(const Vector& diag);

  /// Returns the outer product `u * v'` (shape `u.size() x v.size()`).
  static Matrix OuterProduct(const Vector& u, const Vector& v);

  /// Number of rows.
  size_t rows() const { return rows_; }
  /// Number of columns.
  size_t cols() const { return cols_; }
  /// True iff the matrix is square.
  bool IsSquare() const { return rows_ == cols_; }

  /// Element access with debug bounds checking.
  double& operator()(size_t r, size_t c) {
    SISD_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    SISD_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row `r` (contiguous, `cols()` entries).
  double* RowData(size_t r) {
    SISD_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* RowData(size_t r) const {
    SISD_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Returns row `r` as a vector copy.
  Vector Row(size_t r) const;
  /// Returns column `c` as a vector copy.
  Vector Col(size_t c) const;
  /// Overwrites row `r` with `v` (dimension must match `cols()`).
  void SetRow(size_t r, const Vector& v);

  /// \name In-place arithmetic.
  /// @{
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scale);
  /// Adds `scale * other`.
  Matrix& AddScaled(const Matrix& other, double scale);
  /// Sets every entry to `value` (keeps the storage).
  void Fill(double value);
  /// Symmetric rank-1 update: `this += scale * v v'`. Requires square.
  Matrix& AddOuter(const Vector& v, double scale);
  /// @}

  /// Matrix-vector product `A x`.
  Vector MatVec(const Vector& x) const;

  /// Transposed matrix-vector product `A' x`.
  Vector TransposeMatVec(const Vector& x) const;

  /// Matrix-matrix product `A B`.
  Matrix MatMul(const Matrix& other) const;

  /// Returns the transpose.
  Matrix Transposed() const;

  /// Quadratic form `x' A x`. Requires square with matching dimension.
  double QuadraticForm(const Vector& x) const;

  /// Bilinear form `x' A y`.
  double BilinearForm(const Vector& x, const Vector& y) const;

  /// Trace (sum of diagonal). Requires square.
  double Trace() const;

  /// Diagonal as a vector. Requires square.
  Vector DiagonalVector() const;

  /// Extracts the square submatrix with rows/cols given by `indices`.
  Matrix Submatrix(const std::vector<size_t>& indices) const;

  /// Maximum absolute entry.
  double MaxAbs() const;

  /// True iff all entries are finite.
  bool AllFinite() const;

  /// True iff `|A - A'|_max <= tol`.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Symmetrizes in place: `A = (A + A') / 2`. Requires square.
  void Symmetrize();

  /// Renders with `%.6g` entries, one row per line.
  std::string ToString() const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// \name Out-of-place arithmetic.
/// @{
Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);
/// @}

/// \brief Maximum absolute componentwise difference; shapes must match.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace sisd::linalg

#endif  // SISD_LINALG_MATRIX_HPP_
