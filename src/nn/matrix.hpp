// Dense row-major matrix with the linear algebra needed for MLP training:
// GEMM variants, elementwise ops, and a damped Cholesky solver used by the
// Kronecker-factored natural-gradient optimizer. Double precision
// throughout — the networks are small (paper: 2x256 hidden units) and KFAC's
// factor inversions benefit from the head-room.
//
// The matmul family runs on the tiled kernels in nn/gemm.hpp, on the
// calling thread. The *_into / *_acc variants (matmul, transpose,
// cholesky_solve) write into caller-owned destinations and perform no heap
// allocation once the destination has capacity — the training step, K-FAC's natural-gradient
// solves included, is built exclusively from these.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace dosc::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }
  std::span<double> row(std::size_t r) noexcept { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  void fill(double value) noexcept { std::fill(data_.begin(), data_.end(), value); }
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }
  /// Reshape without the zero-fill of resize(): contents are unspecified
  /// unless the shape is unchanged (then this is a no-op). Reuses existing
  /// capacity, so repeated calls at steady-state shapes never allocate.
  void ensure_shape(std::size_t rows, std::size_t cols) {
    if (rows == rows_ && cols == cols_) return;
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Xavier/Glorot-uniform initialisation: U[-sqrt(6/(in+out)), +...].
  static Matrix xavier(std::size_t rows, std::size_t cols, util::Rng& rng);
  /// Orthogonal-ish scaled normal init used for output heads (small gain).
  static Matrix scaled_normal(std::size_t rows, std::size_t cols, double stddev,
                              util::Rng& rng);
  static Matrix identity(std::size_t n);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);
Matrix transpose(const Matrix& a);
/// t = Aᵀ, reshaped in place (no allocation once t has capacity). t must not
/// alias a.
void transpose_into(Matrix& t, const Matrix& a);

/// Allocation-free GEMM destinations: c is reshaped (capacity permitting,
/// without allocating) and overwritten. c must not alias a or b.
void matmul_into(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_tn_into(Matrix& c, const Matrix& a, const Matrix& b);
void matmul_nt_into(Matrix& c, const Matrix& a, const Matrix& b);
/// c += A^T * B (c must already have shape [a.cols, b.cols]). The product is
/// reduced independently and added to c with one addition per element.
void matmul_tn_acc(Matrix& c, const Matrix& a, const Matrix& b);

/// Naive single-threaded oracles for the tiled kernels (tests). Same
/// floating-point contraction as the tiled kernels: results are expected to
/// be bit-identical, not merely close.
Matrix matmul_reference(const Matrix& a, const Matrix& b);
Matrix matmul_tn_reference(const Matrix& a, const Matrix& b);
Matrix matmul_nt_reference(const Matrix& a, const Matrix& b);

/// a += scale * b (shapes must match).
void add_scaled(Matrix& a, const Matrix& b, double scale = 1.0);
/// a = a * decay + b * (1 - decay) (EMA update for KFAC factors).
void ema_update(Matrix& a, const Matrix& b, double decay);
/// Elementwise product into a new matrix.
Matrix hadamard(const Matrix& a, const Matrix& b);
/// Add a row vector (1 x cols) to every row.
void add_row_vector(Matrix& a, const Matrix& row_vec);
/// Sum over rows -> 1 x cols.
Matrix column_sums(const Matrix& a);
/// acc += column sums of a (acc must be 1 x a.cols). Allocation-free.
void add_column_sums(Matrix& acc, const Matrix& a);
double frobenius_norm(const Matrix& a) noexcept;
double dot(const Matrix& a, const Matrix& b) noexcept;

/// Solve (M + damping * I) X = B for SPD M via Cholesky. Only M's lower
/// triangle is read, and M is not modified; the damping is increased
/// automatically (up to a limit) if factorisation fails. Throws
/// std::runtime_error if M cannot be factorised at all.
///
/// The result is pinned bit for bit, not merely to a tolerance: each factor
/// element and each solution element is one mul-then-subtract chain in
/// ascending k closed by one division (tests/test_matrix.cpp keeps the
/// scalar dot-form factor and row-axpy solves as the oracle).
Matrix cholesky_solve(const Matrix& m, const Matrix& b, double damping);
/// As cholesky_solve, into caller-owned destinations: x receives the
/// solution and `factor` is the n x n workspace the factor is built in.
/// Both are reshaped in place, so at steady shapes no allocation happens.
/// Neither may alias m, b or each other.
void cholesky_solve_into(Matrix& x, Matrix& factor, const Matrix& m, const Matrix& b,
                         double damping);

}  // namespace dosc::nn
