#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace sisd::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    SISD_CHECK(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix out(n, n);
  for (size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix out(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) out(i, i) = diag[i];
  return out;
}

Matrix Matrix::OuterProduct(const Vector& u, const Vector& v) {
  Matrix out(u.size(), v.size());
  for (size_t r = 0; r < u.size(); ++r) {
    double* row = out.RowData(r);
    for (size_t c = 0; c < v.size(); ++c) row[c] = u[r] * v[c];
  }
  return out;
}

Vector Matrix::Row(size_t r) const {
  SISD_DCHECK(r < rows_);
  Vector out(cols_);
  const double* row = RowData(r);
  for (size_t c = 0; c < cols_; ++c) out[c] = row[c];
  return out;
}

Vector Matrix::Col(size_t c) const {
  SISD_DCHECK(c < cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  SISD_CHECK(v.size() == cols_);
  double* row = RowData(r);
  for (size_t c = 0; c < cols_; ++c) row[c] = v[c];
}

Matrix& Matrix::operator+=(const Matrix& other) {
  SISD_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  SISD_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scale) {
  for (double& v : data_) v *= scale;
  return *this;
}

Matrix& Matrix::AddScaled(const Matrix& other, double scale) {
  SISD_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
  return *this;
}

void Matrix::Fill(double value) {
  for (double& v : data_) v = value;
}

Matrix& Matrix::AddOuter(const Vector& v, double scale) {
  SISD_DCHECK(IsSquare() && v.size() == rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double* row = RowData(r);
    const double vr = scale * v[r];
    for (size_t c = 0; c < cols_; ++c) row[c] += vr * v[c];
  }
  return *this;
}

Vector Matrix::MatVec(const Vector& x) const {
  SISD_DCHECK(x.size() == cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowData(r);
    double acc = 0.0;
    for (size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
  return out;
}

Vector Matrix::TransposeMatVec(const Vector& x) const {
  SISD_DCHECK(x.size() == rows_);
  Vector out(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowData(r);
    const double xr = x[r];
    for (size_t c = 0; c < cols_; ++c) out[c] += row[c] * xr;
  }
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  SISD_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* arow = RowData(r);
    double* orow = out.RowData(r);
    for (size_t k = 0; k < cols_; ++k) {
      const double a = arow[k];
      if (a == 0.0) continue;
      const double* brow = other.RowData(k);
      for (size_t c = 0; c < other.cols_; ++c) orow[c] += a * brow[c];
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowData(r);
    for (size_t c = 0; c < cols_; ++c) out(c, r) = row[c];
  }
  return out;
}

double Matrix::QuadraticForm(const Vector& x) const {
  SISD_DCHECK(IsSquare() && x.size() == rows_);
  double acc = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowData(r);
    double inner = 0.0;
    for (size_t c = 0; c < cols_; ++c) inner += row[c] * x[c];
    acc += x[r] * inner;
  }
  return acc;
}

double Matrix::BilinearForm(const Vector& x, const Vector& y) const {
  SISD_DCHECK(x.size() == rows_ && y.size() == cols_);
  double acc = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowData(r);
    double inner = 0.0;
    for (size_t c = 0; c < cols_; ++c) inner += row[c] * y[c];
    acc += x[r] * inner;
  }
  return acc;
}

double Matrix::Trace() const {
  SISD_DCHECK(IsSquare());
  double acc = 0.0;
  for (size_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

Vector Matrix::DiagonalVector() const {
  SISD_DCHECK(IsSquare());
  Vector out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, i);
  return out;
}

Matrix Matrix::Submatrix(const std::vector<size_t>& indices) const {
  SISD_CHECK(IsSquare());
  Matrix out(indices.size(), indices.size());
  for (size_t r = 0; r < indices.size(); ++r) {
    SISD_CHECK(indices[r] < rows_);
    for (size_t c = 0; c < indices.size(); ++c) {
      out(r, c) = (*this)(indices[r], indices[c]);
    }
  }
  return out;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool Matrix::IsSymmetric(double tol) const {
  if (!IsSquare()) return false;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

void Matrix::Symmetrize() {
  SISD_CHECK(IsSquare());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = r + 1; c < cols_; ++c) {
      double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

std::string Matrix::ToString() const {
  std::string out;
  for (size_t r = 0; r < rows_; ++r) {
    out += "[";
    const double* row = RowData(r);
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += StrFormat("%.6g", row[c]);
    }
    out += "]\n";
  }
  return out;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}

Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}

Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}

Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  SISD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double best = 0.0;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      best = std::max(best, std::fabs(a(r, c) - b(r, c)));
    }
  }
  return best;
}

}  // namespace sisd::linalg
