#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace manywalks {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
  MW_REQUIRE(x.size() == cols_, "matvec dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  MW_REQUIRE(cols_ == other.rows_, "matmul dimension mismatch");
  DenseMatrix out(rows_, other.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols_; ++c) {
        out.at(r, c) += a * other.at(k, c);
      }
    }
  }
  return out;
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  MW_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
             "shape mismatch in max_abs_diff");
  double best = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    best = std::max(best, std::abs(data_[i] - other.data_[i]));
  }
  return best;
}

DenseMatrix solve_linear_multi(DenseMatrix a, DenseMatrix b) {
  const std::size_t n = a.rows();
  MW_REQUIRE(a.cols() == n, "solve needs a square matrix");
  MW_REQUIRE(b.rows() == n, "rhs rows must match matrix size");
  const std::size_t k = b.cols();

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest |entry| in this column to the top.
    std::size_t pivot = col;
    double best = std::abs(a.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double candidate = std::abs(a.at(r, col));
      if (candidate > best) {
        best = candidate;
        pivot = r;
      }
    }
    MW_REQUIRE(best > 1e-12, "singular matrix in solve_linear (pivot "
                                 << best << " at column " << col << ")");
    if (pivot != col) {
      for (std::size_t c = col; c < n; ++c)
        std::swap(a.at(col, c), a.at(pivot, c));
      for (std::size_t c = 0; c < k; ++c)
        std::swap(b.at(col, c), b.at(pivot, c));
    }
    const double inv = 1.0 / a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a.at(r, col) * inv;
      if (factor == 0.0) continue;
      a.at(r, col) = 0.0;
      for (std::size_t c = col + 1; c < n; ++c)
        a.at(r, c) -= factor * a.at(col, c);
      for (std::size_t c = 0; c < k; ++c) b.at(r, c) -= factor * b.at(col, c);
    }
  }

  // Back substitution.
  DenseMatrix x(n, k, 0.0);
  for (std::size_t r = n; r-- > 0;) {
    for (std::size_t c = 0; c < k; ++c) {
      double acc = b.at(r, c);
      for (std::size_t j = r + 1; j < n; ++j) acc -= a.at(r, j) * x.at(j, c);
      x.at(r, c) = acc / a.at(r, r);
    }
  }
  return x;
}

DenseMatrix spd_inverse(DenseMatrix a) {
  const std::size_t n = a.rows();
  MW_REQUIRE(a.cols() == n, "spd_inverse needs a square matrix");

  // Right-looking Cholesky in place on the upper triangle: row k becomes
  // row k of R, then updates every later row i by an axpy with multiplier
  // R(k, i), so the inner loops run along contiguous rows.
  for (std::size_t k = 0; k < n; ++k) {
    const double pivot = a.at(k, k);
    MW_REQUIRE(pivot > 1e-12, "matrix not positive definite in spd_inverse "
                              "(pivot " << pivot << " at column " << k << ")");
    const double r_kk = std::sqrt(pivot);
    double* row_k = &a.at(k, 0);
    row_k[k] = r_kk;
    for (std::size_t j = k + 1; j < n; ++j) row_k[j] /= r_kk;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double mult = row_k[i];
      if (mult == 0.0) continue;
      double* row_i = &a.at(i, 0);
      for (std::size_t j = i; j < n; ++j) row_i[j] -= mult * row_k[j];
    }
  }

  // G = A^-1 solves R G = R^-T, whose right side is lower triangular with
  // diagonal 1/R(i,i). Bottom-up, row i of G right of the diagonal is
  // -sum_{j>i} R(i,j) G(j,.) / R(i,i) over rows already complete; the
  // diagonal then follows from the new row, and symmetry fills column i.
  DenseMatrix g(n, n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    const double* r_i = &a.at(i, 0);
    double* g_i = &g.at(i, 0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double mult = r_i[j];
      if (mult == 0.0) continue;
      const double* g_j = &g.at(j, 0);
      for (std::size_t c = i + 1; c < n; ++c) g_i[c] -= mult * g_j[c];
    }
    const double inv_r = 1.0 / r_i[i];
    double diag = inv_r;
    for (std::size_t c = i + 1; c < n; ++c) {
      g_i[c] *= inv_r;
      diag -= r_i[c] * g_i[c];
    }
    g_i[i] = diag * inv_r;
    for (std::size_t c = i + 1; c < n; ++c) g.at(c, i) = g_i[c];
  }
  return g;
}

std::vector<double> solve_linear(DenseMatrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  MW_REQUIRE(b.size() == n, "rhs size must match matrix size");
  DenseMatrix rhs(n, 1);
  for (std::size_t i = 0; i < n; ++i) rhs.at(i, 0) = b[i];
  DenseMatrix x = solve_linear_multi(std::move(a), std::move(rhs));
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = x.at(i, 0);
  return out;
}

}  // namespace manywalks
