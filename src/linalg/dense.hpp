// Small dense linear algebra: row-major matrices, Gaussian elimination, and
// the Cholesky inverse of a symmetric positive-definite matrix. Used by the
// exact solvers on small graphs: all-pairs hitting times invert the grounded
// Laplacian with spd_inverse (Tetali's formula then gives every h(i, j));
// single-target hitting and cover times use Gaussian elimination. Not
// intended for large n.
#pragma once

#include <cstddef>
#include <vector>

namespace manywalks {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// y = A x
  std::vector<double> multiply(const std::vector<double>& x) const;

  DenseMatrix multiply(const DenseMatrix& other) const;

  /// Max-norm of (A - B); matrices must have equal shape.
  double max_abs_diff(const DenseMatrix& other) const;

  std::vector<double>& data() noexcept { return data_; }
  const std::vector<double>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting; A and b are
/// taken by value (the copy is the workspace). Throws std::invalid_argument
/// if A is (numerically) singular.
std::vector<double> solve_linear(DenseMatrix a, std::vector<double> b);

/// Solves A X = B for several right-hand sides at once (B columns).
DenseMatrix solve_linear_multi(DenseMatrix a, DenseMatrix b);

/// Inverse of a symmetric positive-definite A from one Cholesky
/// factorization A = R^T R (about n^3 flops; zero entries of R are skipped,
/// so banded matrices cost about n^2 times the bandwidth). Only the upper
/// triangle of A is read. Throws std::invalid_argument on a pivot <= 1e-12,
/// i.e. when A is not (numerically) positive definite.
DenseMatrix spd_inverse(DenseMatrix a);

}  // namespace manywalks
