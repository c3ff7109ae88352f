#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "kernel_tiers.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

// ---- Cholesky oracle --------------------------------------------------
// The scalar left-looking (dot-form) factor and row-axpy substitutions
// cholesky_solve used before its column-form factor and register-blocked
// solves. Kept verbatim as the reference: the optimised solver must
// reproduce it bit for bit, since the ACKTR step's output is pinned.

bool reference_factor(Matrix& m, double damping) {
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) m(i, i) += damping;
  for (std::size_t j = 0; j < n; ++j) {
    double diag = m(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= m(j, k) * m(j, k);
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    m(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = m(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= m(i, k) * m(j, k);
      m(i, j) = v / ljj;
    }
  }
  return true;
}

Matrix reference_cholesky_solve(const Matrix& m, const Matrix& b, double damping) {
  const std::size_t n = m.rows();
  Matrix l;
  double d = damping;
  bool ok = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    l = m;
    if (reference_factor(l, d)) {
      ok = true;
      break;
    }
    d = (d == 0.0) ? 1e-8 : d * 10.0;
  }
  if (!ok) throw std::runtime_error("reference_cholesky_solve: not positive definite");
  Matrix x = b;
  const std::size_t cols = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x.data() + i * cols;
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = l(i, k);
      const double* xk = x.data() + k * cols;
      for (std::size_t c = 0; c < cols; ++c) xi[c] -= lik * xk[c];
    }
    const double diag = l(i, i);
    for (std::size_t c = 0; c < cols; ++c) xi[c] /= diag;
  }
  for (std::size_t i = n; i-- > 0;) {
    double* xi = x.data() + i * cols;
    for (std::size_t k = i + 1; k < n; ++k) {
      const double lki = l(k, i);
      const double* xk = x.data() + k * cols;
      for (std::size_t c = 0; c < cols; ++c) xi[c] -= lki * xk[c];
    }
    const double diag = l(i, i);
    for (std::size_t c = 0; c < cols; ++c) xi[c] /= diag;
  }
  return x;
}

std::size_t bit_mismatches(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.size() + b.size() + 1;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

Matrix random_normal(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

/// A K-FAC-like covariance: XᵀX / rows over a few more rows than columns.
Matrix random_spd(std::size_t n, util::Rng& rng) {
  const std::size_t rows = n + 8;
  const Matrix x = random_normal(rows, n, rng);
  Matrix s = matmul_tn(x, x);
  for (std::size_t i = 0; i < s.size(); ++i) s.data()[i] /= static_cast<double>(rows);
  return s;
}

Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (const double v : row) m(r, c++) = v;
    ++r;
  }
  return m;
}

TEST(Matrix, MatmulKnownResult) {
  const Matrix a = from_rows({{1, 2}, {3, 4}});
  const Matrix b = from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(matmul_tn(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(matmul_nt(Matrix(2, 3), Matrix(2, 2)), std::invalid_argument);
}

TEST(Matrix, TransposedVariantsAgree) {
  util::Rng rng(1);
  Matrix a(4, 3);
  Matrix b(4, 5);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal(0, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal(0, 1);
  // A^T B computed directly vs via explicit transpose.
  const Matrix expected = matmul(transpose(a), b);
  const Matrix got = matmul_tn(a, b);
  ASSERT_EQ(got.rows(), expected.rows());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-12);
  }
  // A B^T.
  Matrix c(5, 3);
  for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] = rng.normal(0, 1);
  const Matrix expected2 = matmul(a, transpose(c));
  const Matrix got2 = matmul_nt(a, c);
  for (std::size_t i = 0; i < got2.size(); ++i) {
    EXPECT_NEAR(got2.data()[i], expected2.data()[i], 1e-12);
  }
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = from_rows({{1, 2}, {3, 4}});
  const Matrix b = from_rows({{10, 20}, {30, 40}});
  add_scaled(a, b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 24.0);

  Matrix e = from_rows({{2, 2}});
  ema_update(e, from_rows({{4, 0}}), 0.75);
  EXPECT_DOUBLE_EQ(e(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(e(0, 1), 1.5);

  const Matrix h = hadamard(from_rows({{2, 3}}), from_rows({{4, 5}}));
  EXPECT_DOUBLE_EQ(h(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(h(0, 1), 15.0);
}

TEST(Matrix, RowVectorAndColumnSums) {
  Matrix a = from_rows({{1, 2}, {3, 4}});
  add_row_vector(a, from_rows({{10, 20}}));
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 24.0);
  const Matrix s = column_sums(a);
  EXPECT_DOUBLE_EQ(s(0, 0), 24.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 46.0);
}

TEST(Matrix, Norms) {
  const Matrix a = from_rows({{3, 4}});
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
  }
}

TEST(Matrix, XavierWithinLimit) {
  util::Rng rng(2);
  const Matrix w = Matrix::xavier(20, 30, rng);
  const double limit = std::sqrt(6.0 / 50.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w.data()[i]), limit);
  }
}

TEST(Cholesky, SolvesSpdSystem) {
  // M = L L^T for L = [[2,0],[1,3]] -> M = [[4,2],[2,10]].
  const Matrix m = from_rows({{4, 2}, {2, 10}});
  const Matrix b = from_rows({{6}, {22}});
  const Matrix x = cholesky_solve(m, b, 0.0);
  // Check M x = b.
  const Matrix back = matmul(m, x);
  EXPECT_NEAR(back(0, 0), 6.0, 1e-10);
  EXPECT_NEAR(back(1, 0), 22.0, 1e-10);
}

TEST(Cholesky, DampingActsAsRidge) {
  const Matrix m = from_rows({{1, 0}, {0, 1}});
  const Matrix b = from_rows({{2}, {4}});
  const Matrix x = cholesky_solve(m, b, 1.0);  // (M + I) x = b -> x = b/2
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(Cholesky, RecoversFromSingularByIncreasingDamping) {
  // Singular matrix: rank 1. With damping escalation the solve must still
  // return something finite.
  const Matrix m = from_rows({{1, 1}, {1, 1}});
  const Matrix b = from_rows({{1}, {1}});
  const Matrix x = cholesky_solve(m, b, 0.0);
  EXPECT_TRUE(std::isfinite(x(0, 0)));
  EXPECT_TRUE(std::isfinite(x(1, 0)));
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky_solve(Matrix(2, 3), Matrix(2, 1), 0.0), std::invalid_argument);
  EXPECT_THROW(cholesky_solve(Matrix(2, 2), Matrix(3, 1), 0.0), std::invalid_argument);
}

TEST(Cholesky, MultipleRightHandSides) {
  const Matrix m = from_rows({{4, 2}, {2, 10}});
  const Matrix b = from_rows({{6, 4}, {22, 2}});
  const Matrix x = cholesky_solve(m, b, 0.0);
  const Matrix back = matmul(m, x);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_NEAR(back.data()[i], b.data()[i], 1e-10);
  }
}

/// Runs under each kernel tier; see kernel_tiers.hpp. Every tier's factor
/// and solves must equal the scalar oracle bit for bit.
class Cholesky : public test::PerTier {};

INSTANTIATE_TEST_SUITE_P(EveryTier, Cholesky, test::kEveryTier, test::tier_test_name);

TEST_P(Cholesky, BitIdenticalToScalarReference) {
  util::Rng rng(11);
  // n crosses the factor's 4-pivot blocks and the forward solve's 4-row
  // blocks; rhs crosses every strip width of every tier (forward strips of
  // 4, 8 and 16 columns, backward strips of 16, 32 and 64) and their
  // binary remainders.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 17u, 64u, 65u, 256u, 257u}) {
    const Matrix m = random_spd(n, rng);
    for (const std::size_t rhs :
         {1u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 256u, 257u}) {
      const Matrix b = random_normal(n, rhs, rng);
      EXPECT_EQ(bit_mismatches(cholesky_solve(m, b, 0.01), reference_cholesky_solve(m, b, 0.01)),
                0u)
          << "n=" << n << " rhs=" << rhs;
    }
  }
}

TEST(Cholesky, IntoFormMatchesAndReusesWorkspaces) {
  util::Rng rng(12);
  Matrix x, factor;
  // Grow, shrink, regrow: stale workspace contents must not leak into a
  // later solve.
  for (const std::size_t n : {64u, 17u, 64u}) {
    const Matrix m = random_spd(n, rng);
    const Matrix b = random_normal(n, 33, rng);
    cholesky_solve_into(x, factor, m, b, 0.01);
    EXPECT_EQ(bit_mismatches(x, reference_cholesky_solve(m, b, 0.01)), 0u) << "n=" << n;
  }
  const Matrix m = random_spd(4, rng);
  Matrix b = random_normal(4, 2, rng);
  EXPECT_THROW(cholesky_solve_into(b, factor, m, b, 0.01), std::invalid_argument);
  Matrix m_copy = m;
  EXPECT_THROW(cholesky_solve_into(x, m_copy, m_copy, b, 0.01), std::invalid_argument);
  EXPECT_THROW(cholesky_solve_into(x, x, m, b, 0.01), std::invalid_argument);
}

TEST(Cholesky, ReadsOnlyTheLowerTriangle) {
  util::Rng rng(13);
  const Matrix m = random_spd(40, rng);
  Matrix garbage_upper = m;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = i + 1; j < 40; ++j) {
      garbage_upper(i, j) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const Matrix b = random_normal(40, 5, rng);
  EXPECT_EQ(bit_mismatches(cholesky_solve(garbage_upper, b, 0.01),
                           reference_cholesky_solve(m, b, 0.01)),
            0u);
}

TEST_P(Cholesky, RetriedDampingIsBitIdenticalToReference) {
  util::Rng rng(14);
  const std::size_t n = 64;
  // A negative leading diagonal: pivot 0 is -1e-3 + damping, which fails at
  // damping 1e-4 and at 1e-3 (exactly zero), and succeeds at 1e-2. Every
  // retry must restart from a fresh copy of M.
  Matrix m = random_spd(n, rng);
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 1.0;
  m(0, 0) = -1e-3;
  for (std::size_t j = 1; j < n; ++j) {
    m(0, j) *= 1e-3;
    m(j, 0) *= 1e-3;
  }
  Matrix first_attempt = m;
  ASSERT_FALSE(reference_factor(first_attempt, 1e-4));
  for (const std::size_t rhs : {1u, 17u}) {
    const Matrix b = random_normal(n, rhs, rng);
    EXPECT_EQ(bit_mismatches(cholesky_solve(m, b, 1e-4), reference_cholesky_solve(m, b, 1e-4)),
              0u)
        << "rhs=" << rhs;
  }
}

}  // namespace
}  // namespace dosc::nn
