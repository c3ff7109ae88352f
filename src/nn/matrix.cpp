#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/tier.hpp"

// The Cholesky kernels are included once per tier, like the gemm, gemv and
// tanh kernels, and the one tier choice of nn/tier.hpp picks among them.
// Unlike theirs, every tier rounds alike: this file is built with
// -ffp-contract=off (src/nn/CMakeLists.txt), so the FMA tiers too multiply,
// then subtract, and all three equal the scalar oracle bit for bit.
#define DOSC_CHOLESKY_NAMESPACE cholesky_baseline
#define DOSC_CHOLESKY_LANES 2
#include "nn/cholesky_kernels.inc"
#undef DOSC_CHOLESKY_LANES
#undef DOSC_CHOLESKY_NAMESPACE

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DOSC_CHOLESKY_HAVE_X86_TIERS 1
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define DOSC_CHOLESKY_NAMESPACE cholesky_avx2
#define DOSC_CHOLESKY_LANES 4
#include "nn/cholesky_kernels.inc"
#undef DOSC_CHOLESKY_LANES
#undef DOSC_CHOLESKY_NAMESPACE
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma,prefer-vector-width=512")
#define DOSC_CHOLESKY_NAMESPACE cholesky_avx512
#define DOSC_CHOLESKY_LANES 8
#include "nn/cholesky_kernels.inc"
#undef DOSC_CHOLESKY_LANES
#undef DOSC_CHOLESKY_NAMESPACE
#pragma GCC pop_options
#endif

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

using CholeskyFactorFn = bool (*)(double* u, std::size_t n);
using CholeskySolveFn = void (*)(const double* f, std::size_t n, double* x, std::size_t cols);

struct CholeskyKernels {
  CholeskyFactorFn factor;
  CholeskySolveFn solve;
};

/// Indexed by detail::Tier; a build without the x86 tiers repeats the
/// baseline, which tier_supported() then never lets run.
constexpr CholeskyKernels kCholeskyTiers[detail::kTierCount] = {
    {&cholesky_baseline::factor, &cholesky_baseline::solve},
#ifdef DOSC_CHOLESKY_HAVE_X86_TIERS
    {&cholesky_avx2::factor, &cholesky_avx2::solve},
    {&cholesky_avx512::factor, &cholesky_avx512::solve},
#else
    {&cholesky_baseline::factor, &cholesky_baseline::solve},
    {&cholesky_baseline::factor, &cholesky_baseline::solve},
#endif
};

/// Cholesky factorisation of (M + damping I) into f. Only M's lower
/// triangle is read. f ends with U = Lᵀ in its upper triangle and L mirrored
/// into its lower, so both substitutions read a contiguous factor row.
/// Returns false if a non-positive pivot is met.
bool cholesky_factor(const CholeskyKernels& kernels, Matrix& f, const Matrix& m,
                     double damping) {
  const std::size_t n = m.rows();
  f.ensure_shape(n, n);
  double* u = f.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* mrow = m.data() + i * n;
    for (std::size_t j = 0; j <= i; ++j) u[j * n + i] = mrow[j];
    u[i * n + i] += damping;
  }
  if (!kernels.factor(u, n)) return false;
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t k = 0; k < i; ++k) u[i * n + k] = u[k * n + i];
  }
  return true;
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

  const CholeskyKernels& kernels = kCholeskyTiers[static_cast<int>(detail::active_tier())];
  double d = damping;
  bool ok = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (cholesky_factor(kernels, factor, m, d)) {
      ok = true;
      break;
    }
    d = (d == 0.0) ? 1e-8 : d * 10.0;
  }
  if (!ok) throw std::runtime_error("cholesky_solve: matrix not positive definite");

  const std::size_t cols = b.cols();
  x.ensure_shape(n, cols);
  std::copy(b.data(), b.data() + b.size(), x.data());
  kernels.solve(factor.data(), n, x.data(), cols);
}

}  // namespace dosc::nn
