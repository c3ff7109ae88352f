// Multi-layer perceptron with manual backprop.
//
// The paper's actor and critic are each an MLP with two hidden layers of
// 256 tanh units (Sec. V-A2). This class supports arbitrary layer sizes,
// caches the per-layer statistics KFAC needs (layer inputs and
// pre-activation gradients), and exposes flat parameter get/set for
// best-agent selection and for copying the trained policy to every node.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace dosc::nn {

enum class Activation { kLinear, kTanh, kRelu };

/// One fully-connected layer. Public data: the trainer and the KFAC
/// optimizer both need direct access to weights, gradients, and caches.
struct DenseLayer {
  Matrix weights;  ///< [in, out]
  Matrix bias;     ///< [1, out]
  Activation activation = Activation::kTanh;

  Matrix grad_weights;  ///< accumulated d(loss)/d(weights)
  Matrix grad_bias;

  // Caches from the last forward()/backward() pass (training mode only).
  Matrix input;        ///< [batch, in]   — KFAC factor A uses this
  Matrix output;       ///< [batch, out]  — post-activation
  Matrix grad_preact;  ///< [batch, out]  — KFAC factor G uses this

  std::size_t fan_in() const noexcept { return weights.rows(); }
  std::size_t fan_out() const noexcept { return weights.cols(); }
};

class Mlp {
 public:
  /// layer_sizes = {in, h1, ..., out}. Hidden layers use `hidden`; the last
  /// layer uses `output` activation. The output layer's weights are
  /// initialised with a small stddev (common for policy/value heads).
  Mlp(std::vector<std::size_t> layer_sizes, Activation hidden, Activation output,
      std::uint64_t seed, double head_stddev = 0.01);

  // Copies share no packed-weight state (the copy repacks lazily on first
  // predict_row); moves carry the cache along with the weights it mirrors.
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept;
  Mlp& operator=(Mlp&&) noexcept;
  ~Mlp();

  /// Training-mode forward: caches per-layer inputs/outputs for backward().
  /// Returns the last layer's cached output; the reference stays valid until
  /// the next forward(). Layer caches are reused across calls, so at a
  /// steady batch shape this performs no heap allocation.
  const Matrix& forward(const Matrix& x);
  /// Inference-mode forward: no caches touched; safe to call concurrently
  /// from multiple threads on a shared const Mlp.
  Matrix predict(const Matrix& x) const;

  /// Allocation-free single-observation forward for the per-decision hot
  /// path (a coordination decision is one of these; Fig. 9b measures it).
  /// `out` is resized to the output size; `scratch` is caller-provided
  /// working memory reused across calls. Routed through the register-blocked
  /// gemv kernels over packed weight panels owned by this Mlp (repacked
  /// lazily after any weight mutation), and bit-identical to predict() at
  /// the dispatched ISA level. `out` must not alias `input`. Thread-safe on
  /// a const Mlp (per-caller scratch, one-time internal repack under a
  /// mutex).
  struct Scratch {
    std::vector<double> a;
    std::vector<double> b;
  };
  void predict_row(std::span<const double> input, std::vector<double>& out,
                   Scratch& scratch) const;

  /// Small-batch inference forward for the serving path: `input` is a
  /// row-major [batch x input_size] block, `out` is resized to
  /// batch * output_size (row-major). Routed through the tiled gemm kernels
  /// over pre-packed per-layer weight slabs (repacked lazily after any
  /// weight mutation, alongside the gemv panels) with the exact operation
  /// order of predict() (matmul → bias row add → activation), so each output
  /// row is bit-identical to predict() — and therefore to predict_row() — at
  /// the dispatched ISA level. Alloc-free at a steady batch shape with a
  /// caller-reused scratch. Thread-safe on a const Mlp (per-caller scratch,
  /// one-time internal repack under a mutex).
  struct BatchScratch {
    std::vector<double> a;
    std::vector<double> b;
  };
  void predict_batch(const double* input, std::size_t batch, std::vector<double>& out,
                     BatchScratch& scratch) const;

  /// The seed's scalar predict_row loop (bias-first accumulation with
  /// zero-skip), kept verbatim as the golden behaviour guard's reference
  /// (Golden.FastPathMatchesLegacyDecisionStream).
  void predict_row_legacy(std::span<const double> input, std::vector<double>& out,
                          Scratch& scratch) const;

  /// Backprop d(loss)/d(output) through the cached forward pass,
  /// accumulating parameter gradients. Returns the first layer's
  /// pre-activation gradient (valid until the next backward()). Gradient
  /// buffers are reused across calls: no heap allocation at a steady batch
  /// shape.
  const Matrix& backward(const Matrix& grad_output);

  void zero_grad();
  /// Global L2 norm of all parameter gradients.
  double grad_norm() const noexcept;
  /// Scale all gradients so the global norm is at most `max_norm`.
  void clip_grad_norm(double max_norm);
  void scale_grad(double factor);

  /// Mutable access invalidates the packed inference panels (callers use
  /// this to update weights in place, e.g. the KFAC updater).
  std::vector<DenseLayer>& layers() noexcept {
    invalidate_pack();
    return layers_;
  }
  const std::vector<DenseLayer>& layers() const noexcept { return layers_; }
  std::size_t input_size() const noexcept { return layers_.front().fan_in(); }
  std::size_t output_size() const noexcept { return layers_.back().fan_out(); }
  std::size_t num_parameters() const noexcept;

  std::vector<double> get_parameters() const;
  void set_parameters(const std::vector<double>& flat);

 private:
  struct PackCache;  // packed gemv weight panels (mutex + atomic valid flag)

  static void apply_activation(Matrix& m, Activation act) noexcept;
  void invalidate_pack() noexcept;
  const PackCache& ensure_packed() const;

  std::vector<DenseLayer> layers_;
  /// Lazily packed per-layer weight panels for the gemv fast path. Mutable:
  /// packing is a cache fill on a logically-const network. Held by pointer
  /// so the synchronisation members don't pin the Mlp in place.
  mutable std::unique_ptr<PackCache> pack_;
};

}  // namespace dosc::nn
