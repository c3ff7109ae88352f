// Kronecker-factored approximate natural gradient (the K-FAC optimizer
// underlying ACKTR, Wu et al., NeurIPS 2017).
//
// For each dense layer, the Fisher block is approximated as
// F ≈ A ⊗ G with A = E[ā āᵀ] (ā = layer input with a homogeneous 1 for the
// bias) and G = E[g gᵀ] (g = gradient w.r.t. the pre-activation). The
// natural gradient is then A⁻¹ Ḡ G⁻¹ per layer (Ḡ stacks the weight and
// bias gradients), computed with damped Cholesky solves. A trust region
// rescales the step so the predicted KL change stays below `kl_clip`, which
// is ACKTR's "gradual policy update" guarantee the paper relies on.
#pragma once

#include <exception>

#include "nn/optimizer.hpp"

namespace dosc::nn {

struct KfacConfig {
  double learning_rate = 0.25;  ///< paper: initial learning rate 0.25
  double kl_clip = 0.001;       ///< paper: Kullback-Leibler clipping 0.001
  static constexpr double damping = 0.01;     ///< Tikhonov damping added to both factors
  static constexpr double ema_decay = 0.99;   ///< running-average decay for A and G
  static constexpr double fisher_coef = 1.0;  ///< paper: Fisher coefficient 1.0
  /// Euclidean cap on one step's parameter change. Guards against the
  /// natural gradient blowing up when the gradient covariance G collapses
  /// (e.g., near-zero training error); the KL trust region alone cannot
  /// catch that because its quadratic form shrinks along with G.
  static constexpr double step_norm_cap = 2.0;
};

class Kfac final : public Optimizer {
 public:
  explicit Kfac(const KfacConfig& config = {})
      : Optimizer(config.learning_rate), config_(config) {}

  /// Update the running Kronecker factors from the layer caches left by the
  /// last forward()/backward() pass. Call once per mini-batch, before
  /// step(). `batch_size` is the number of rows in the cached activations.
  void update_factors(Mlp& net);

  void step(Mlp& net) override;

  const KfacConfig& config() const noexcept { return config_; }

 private:
  struct LayerFactors {
    Matrix a;  ///< [(in+1) x (in+1)] running input covariance
    Matrix g;  ///< [out x out] running pre-activation gradient covariance
    bool initialised = false;

    // Reused per-layer workspaces (update_factors / step). Keeping them here
    // makes update_factors and step allocation-free at steady state and lets
    // layers be processed on different compute threads without sharing.
    // The batch covariances are dead once folded into a and g, so step
    // builds its Cholesky factors of A and G in them.
    Matrix a_batch;     ///< this batch's input covariance; step: A's factor
    Matrix g_batch;     ///< this batch's gradient covariance; step: G's factor
    Matrix work_a;      ///< step's intermediates, [ (in+1) x out ] or its
    Matrix work_b;      ///< transpose, each overwritten once it is dead
    Matrix natural;     ///< per-layer natural gradient A⁻¹ Ḡ G⁻¹
    double quadratic = 0.0;  ///< this layer's contribution to vᵀ F v
    std::exception_ptr error;  ///< a throwing step, rethrown after the join
  };

  KfacConfig config_;
  std::vector<LayerFactors> factors_;
};

}  // namespace dosc::nn
