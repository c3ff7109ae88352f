#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/gemm.hpp"

namespace dosc::nn {

namespace {
void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

void check_no_alias(const Matrix& c, const Matrix& a, const Matrix& b, const char* what) {
  if (c.data() != nullptr && (c.data() == a.data() || c.data() == b.data())) {
    throw std::invalid_argument(what);
  }
}
}  // namespace

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-limit, limit);
  return m;
}

Matrix Matrix::scaled_normal(std::size_t rows, std::size_t cols, double stddev,
                             util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, stddev);
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(c, a, b);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_tn_into(c, a, b);
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt_into(c, a, b);
  return c;
}

void matmul_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul: inner dimensions differ");
  check_no_alias(c, a, b, "matmul_into: c aliases an operand");
  c.ensure_shape(a.rows(), b.cols());
  gemm::nn(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/false);
}

void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn: row counts differ");
  check_no_alias(c, a, b, "matmul_tn_into: c aliases an operand");
  c.ensure_shape(a.cols(), b.cols());
  gemm::tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/false);
}

void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_nt: column counts differ");
  check_no_alias(c, a, b, "matmul_nt_into: c aliases an operand");
  c.ensure_shape(a.rows(), b.rows());
  gemm::nt(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/false);
}

void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn_acc: row counts differ");
  check(c.rows() == a.cols() && c.cols() == b.cols(), "matmul_tn_acc: bad destination shape");
  check_no_alias(c, a, b, "matmul_tn_acc: c aliases an operand");
  gemm::tn(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(), c.data(),
           c.cols(), /*accumulate=*/true);
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "matmul: inner dimensions differ");
  Matrix c(a.rows(), b.cols());
  gemm::nn_reference(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(), b.cols(),
                     c.data(), c.cols());
  return c;
}

Matrix matmul_tn_reference(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "matmul_tn: row counts differ");
  Matrix c(a.cols(), b.cols());
  gemm::tn_reference(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(),
                     c.data(), c.cols());
  return c;
}

Matrix matmul_nt_reference(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "matmul_nt: column counts differ");
  Matrix c(a.rows(), b.rows());
  gemm::nt_reference(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), b.data(), b.cols(),
                     c.data(), c.cols());
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t;
  transpose_into(t, a);
  return t;
}

void transpose_into(Matrix& t, const Matrix& a) {
  if (t.data() != nullptr && t.data() == a.data()) {
    throw std::invalid_argument("transpose_into: t aliases a");
  }
  t.ensure_shape(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
}

void add_scaled(Matrix& a, const Matrix& b, double scale) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "add_scaled: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] += scale * b.data()[i];
}

void ema_update(Matrix& a, const Matrix& b, double decay) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "ema_update: shape mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = a.data()[i] * decay + b.data()[i] * (1.0 - decay);
  }
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "hadamard: shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

void add_row_vector(Matrix& a, const Matrix& row_vec) {
  check(row_vec.rows() == 1 && row_vec.cols() == a.cols(), "add_row_vector: shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) arow[j] += row_vec.data()[j];
  }
}

Matrix column_sums(const Matrix& a) {
  Matrix s(1, a.cols());
  add_column_sums(s, a);
  return s;
}

void add_column_sums(Matrix& acc, const Matrix& a) {
  check(acc.rows() == 1 && acc.cols() == a.cols(), "add_column_sums: shape mismatch");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) acc.data()[j] += arow[j];
  }
}

double frobenius_norm(const Matrix& a) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a.data()[i] * a.data()[i];
  return std::sqrt(sum);
}

double dot(const Matrix& a, const Matrix& b) noexcept {
  double sum = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) sum += a.data()[i] * b.data()[i];
  return sum;
}

namespace {

/// Cholesky factorisation of (M + damping I) into f, in column (right-
/// looking) form. Only M's lower triangle is read. f ends with U = Lᵀ in its
/// upper triangle and L mirrored into its lower, so both substitutions read
/// a contiguous factor row. Returns false if a non-positive pivot is met.
///
/// Every element keeps the chain of the textbook left-looking dot form:
/// M(i,j) [+ damping], minus L(i,0)L(j,0), minus L(i,1)L(j,1), ... in
/// ascending k, each product rounded before its subtraction, and an
/// off-diagonal element finished by one division by the pivot. Here the
/// chain is applied one k at a time as row axpys over the trailing upper
/// triangle, which vectorise; the dot form's inner loop is one
/// latency-bound scalar chain per element. The file is built with
/// -ffp-contract=off, so no mul/sub pair can fuse into an FMA and change a
/// rounding.
bool cholesky_factor(Matrix& f, const Matrix& m, double damping) {
  const std::size_t n = m.rows();
  f.ensure_shape(n, n);
  double* u = f.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* mrow = m.data() + i * n;
    for (std::size_t j = 0; j <= i; ++j) u[j * n + i] = mrow[j];
    u[i * n + i] += damping;
  }
  for (std::size_t k = 0; k < n; ++k) {
    double* uk = u + k * n;
    const double diag = uk[k];
    if (diag <= 0.0) return false;
    const double ukk = std::sqrt(diag);
    uk[k] = ukk;
    for (std::size_t i = k + 1; i < n; ++i) uk[i] /= ukk;
    for (std::size_t j = k + 1; j < n; ++j) {
      const double ukj = uk[j];
      double* __restrict uj = u + j * n;
      const double* __restrict ukr = uk;
      for (std::size_t i = j; i < n; ++i) uj[i] -= ukj * ukr[i];
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) u[i * n + k] = u[k * n + i];
  }
  return true;
}

/// Two doubles: one SSE2 register at the baseline ISA. Loads and stores go
/// through memcpy, which compiles to unaligned vector moves.
typedef double Vec2 __attribute__((vector_size(16)));

inline Vec2 load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof v); }

/// Forward (L y = b) then backward (Lᵀ x = y) substitution for the W
/// right-hand-side columns starting at x, in place. The W running values of
/// a row stay in registers across its whole reduction, so each step loads
/// one strip of an earlier row instead of re-reading and re-writing the row
/// being solved. Per element the chain is the row-axpy form's: the
/// right-hand side, minus L(i,k) * x_k in ascending k, then one division by
/// the pivot.
template <std::size_t W>
void solve_strip(const double* f, std::size_t n, double* x, std::size_t ldx) {
  static_assert(W % 2 == 0, "odd widths go through solve_column");
  constexpr std::size_t kVecs = W / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = f + i * n;
    double* xi = x + i * ldx;
    Vec2 acc[kVecs] = {};
    for (std::size_t v = 0; v < kVecs; ++v) acc[v] = load2(xi + 2 * v);
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      const double* xk = x + k * ldx;
      for (std::size_t v = 0; v < kVecs; ++v) acc[v] -= lik * load2(xk + 2 * v);
    }
    for (std::size_t v = 0; v < kVecs; ++v) store2(xi + 2 * v, acc[v] / li[i]);
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* ui = f + i * n;
    double* xi = x + i * ldx;
    Vec2 acc[kVecs] = {};
    for (std::size_t v = 0; v < kVecs; ++v) acc[v] = load2(xi + 2 * v);
    for (std::size_t k = i + 1; k < n; ++k) {
      const double uik = ui[k];
      const double* xk = x + k * ldx;
      for (std::size_t v = 0; v < kVecs; ++v) acc[v] -= uik * load2(xk + 2 * v);
    }
    for (std::size_t v = 0; v < kVecs; ++v) store2(xi + 2 * v, acc[v] / ui[i]);
  }
}

/// solve_strip for a single right-hand-side column.
void solve_column(const double* f, std::size_t n, double* x, std::size_t ldx) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = f + i * n;
    double acc = x[i * ldx];
    for (std::size_t k = 0; k < i; ++k) acc -= li[k] * x[k * ldx];
    x[i * ldx] = acc / li[i];
  }
  for (std::size_t i = n; i-- > 0;) {
    const double* ui = f + i * n;
    double acc = x[i * ldx];
    for (std::size_t k = i + 1; k < n; ++k) acc -= ui[k] * x[k * ldx];
    x[i * ldx] = acc / ui[i];
  }
}

}  // namespace

Matrix cholesky_solve(const Matrix& m, const Matrix& b, double damping) {
  Matrix x;
  Matrix factor;
  cholesky_solve_into(x, factor, m, b, damping);
  return x;
}

void cholesky_solve_into(Matrix& x, Matrix& factor, const Matrix& m, const Matrix& b,
                         double damping) {
  if (m.rows() != m.cols()) throw std::invalid_argument("cholesky_solve: M not square");
  if (m.rows() != b.rows()) throw std::invalid_argument("cholesky_solve: shape mismatch");
  check_no_alias(x, m, b, "cholesky_solve_into: x aliases an operand");
  check_no_alias(factor, m, b, "cholesky_solve_into: factor aliases an operand");
  if (x.data() != nullptr && x.data() == factor.data()) {
    throw std::invalid_argument("cholesky_solve_into: x aliases factor");
  }
  const std::size_t n = m.rows();

  double d = damping;
  bool ok = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (cholesky_factor(factor, m, d)) {
      ok = true;
      break;
    }
    d = (d == 0.0) ? 1e-8 : d * 10.0;
  }
  if (!ok) throw std::runtime_error("cholesky_solve: matrix not positive definite");

  const std::size_t cols = b.cols();
  x.ensure_shape(n, cols);
  std::copy(b.data(), b.data() + b.size(), x.data());
  // Strips of 16 columns, then 8/4/2/1 for the remainder: columns are
  // independent, so the split changes no element's chain.
  std::size_t c0 = 0;
  for (; c0 + 16 <= cols; c0 += 16) solve_strip<16>(factor.data(), n, x.data() + c0, cols);
  if (c0 + 8 <= cols) {
    solve_strip<8>(factor.data(), n, x.data() + c0, cols);
    c0 += 8;
  }
  if (c0 + 4 <= cols) {
    solve_strip<4>(factor.data(), n, x.data() + c0, cols);
    c0 += 4;
  }
  if (c0 + 2 <= cols) {
    solve_strip<2>(factor.data(), n, x.data() + c0, cols);
    c0 += 2;
  }
  if (c0 < cols) solve_column(factor.data(), n, x.data() + c0, cols);
}

}  // namespace dosc::nn
