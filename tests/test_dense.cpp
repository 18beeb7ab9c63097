#include "linalg/dense.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace manywalks {
namespace {

TEST(DenseMatrixTest, ConstructionAndAccess) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(1, 2), 1.5);
  m.at(0, 0) = -2.0;
  EXPECT_EQ(m.at(0, 0), -2.0);
}

TEST(DenseMatrixTest, Identity) {
  const DenseMatrix id = DenseMatrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(id.at(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrixTest, MatVec) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 3;
  m.at(1, 1) = 4;
  const auto y = m.multiply(std::vector<double>{1.0, -1.0});
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(DenseMatrixTest, MatMul) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  const DenseMatrix b = a.multiply(a);
  EXPECT_DOUBLE_EQ(b.at(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(b.at(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(b.at(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(b.at(1, 1), 22.0);
}

TEST(DenseMatrixTest, MaxAbsDiff) {
  DenseMatrix a(1, 2);
  DenseMatrix b(1, 2);
  a.at(0, 1) = 3.0;
  b.at(0, 1) = -1.0;
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 4.0);
}

TEST(SolveLinear, TwoByTwo) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, RequiresPivoting) {
  // Zero top-left pivot: fails without partial pivoting.
  DenseMatrix a(2, 2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  const auto x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_THROW(solve_linear(a, {1.0, 2.0}), std::invalid_argument);
}

TEST(SolveLinear, LargerSystemAgainstMultiply) {
  // Random-ish well-conditioned system: verify A * x == b.
  const std::size_t n = 12;
  DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a.at(r, c) = static_cast<double>((r * 7 + c * 13) % 5) - 2.0;
    }
    a.at(r, r) += 10.0;  // diagonal dominance
  }
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<double>(i) - 4.0;
  const auto x = solve_linear(a, b);
  const auto back = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(SolveLinearMulti, InverseTimesMatrixIsIdentity) {
  DenseMatrix a(3, 3);
  a.at(0, 0) = 4;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  a.at(1, 2) = 1;
  a.at(2, 1) = 1;
  a.at(2, 2) = 5;
  const DenseMatrix inv = solve_linear_multi(a, DenseMatrix::identity(3));
  const DenseMatrix prod = a.multiply(inv);
  EXPECT_LT(prod.max_abs_diff(DenseMatrix::identity(3)), 1e-10);
}

TEST(SpdInverse, MatchesGaussianEliminationOnRandomSpd) {
  // A = B^T B + n I is symmetric positive definite and well conditioned.
  const std::size_t n = 40;
  Rng rng(0x5bd1ULL);
  DenseMatrix b(n, n);
  for (double& x : b.data()) x = rng.uniform01() - 0.5;
  DenseMatrix a(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double acc = r == c ? static_cast<double>(n) : 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b.at(k, r) * b.at(k, c);
      a.at(r, c) = acc;
    }
  }
  const DenseMatrix inv = spd_inverse(a);
  EXPECT_LT(inv.max_abs_diff(solve_linear_multi(a, DenseMatrix::identity(n))),
            1e-12);
  EXPECT_LT(a.multiply(inv).max_abs_diff(DenseMatrix::identity(n)), 1e-12);
}

TEST(SpdInverse, IndefiniteThrows) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 1;  // eigenvalues 3 and -1
  EXPECT_THROW(spd_inverse(a), std::invalid_argument);
  EXPECT_THROW(spd_inverse(DenseMatrix(2, 3, 1.0)), std::invalid_argument);
}

TEST(SolveLinear, DimensionMismatchThrows) {
  DenseMatrix a(2, 2, 1.0);
  EXPECT_THROW(solve_linear(a, {1.0}), std::invalid_argument);
  DenseMatrix rect(2, 3, 1.0);
  EXPECT_THROW(solve_linear(rect, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
