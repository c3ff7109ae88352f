#include "nn/kfac.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/gemm.hpp"

namespace dosc::nn {

namespace {

double trace(const Matrix& m) noexcept {
  double t = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) t += m(i, i);
  return t;
}

}  // namespace

void Kfac::update_factors(Mlp& net) {
  auto& layers = net.layers();
  if (factors_.size() != layers.size()) factors_.resize(layers.size());

  for (const DenseLayer& layer : layers) {
    if (layer.input.empty() || layer.grad_preact.empty()) {
      throw std::logic_error("Kfac::update_factors: no cached forward/backward pass");
    }
  }

  // Nothing below throws or allocates at steady state.
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const DenseLayer& layer = layers[li];
    LayerFactors& f = factors_[li];
    const std::size_t batch_n = layer.input.rows();
    const std::size_t in = layer.input.cols();
    const double batch = static_cast<double>(batch_n);
    const double* x = layer.input.data();

    // A_batch = augᵀ aug / batch with aug = [X | 1], computed without
    // materialising aug: the in x in block is Xᵀ X written into the top-left
    // of the (in+1)-wide destination, the border is X's column sums (ā's
    // last coordinate is exactly 1), and the corner is the batch size.
    Matrix& ab = f.a_batch;
    ab.ensure_shape(in + 1, in + 1);
    gemm::gram(in, batch_n, x, in, ab.data(), in + 1);
    for (std::size_t j = 0; j < in; ++j) ab(in, j) = 0.0;
    for (std::size_t r = 0; r < batch_n; ++r) {
      const double* xrow = x + r * in;
      double* sums = ab.data() + in * (in + 1);
      for (std::size_t j = 0; j < in; ++j) sums[j] += xrow[j];
    }
    for (std::size_t j = 0; j < in; ++j) ab(j, in) = ab(in, j);
    ab(in, in) = batch;
    for (std::size_t i = 0; i < ab.size(); ++i) ab.data()[i] /= batch;

    Matrix& gb = f.g_batch;
    const Matrix& gp = layer.grad_preact;
    gb.ensure_shape(gp.cols(), gp.cols());
    gemm::gram(gp.cols(), gp.rows(), gp.data(), gp.cols(), gb.data(), gb.cols());
    // The Fisher uses per-sample gradient outer products scaled by the
    // batch; grad_preact already carries the 1/batch loss scaling applied
    // by the trainer, so rescale to per-sample magnitude.
    for (std::size_t i = 0; i < gb.size(); ++i) {
      gb.data()[i] *= batch * KfacConfig::fisher_coef;
    }

    if (!f.initialised) {
      f.a = ab;
      f.g = gb;
      f.initialised = true;
    } else {
      ema_update(f.a, ab, KfacConfig::ema_decay);
      ema_update(f.g, gb, KfacConfig::ema_decay);
    }
  }
}

void Kfac::step(Mlp& net) {
  auto& layers = net.layers();
  if (factors_.size() != layers.size()) {
    throw std::logic_error("Kfac::step: call update_factors first");
  }
  for (const LayerFactors& f : factors_) {
    if (!f.initialised) throw std::logic_error("Kfac::step: factors not initialised");
  }

  // Per-layer natural gradient v_l = A⁻¹ Ḡ_l G⁻¹ with factored damping
  // (pi-splitting, Martens & Grosse 2015). Every intermediate lives in the
  // layer's workspaces: no allocation at steady state. Alongside, vᵀ F̂ v
  // accumulates across layers in layer order.
  double quadratic = 0.0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    LayerFactors& f = factors_[li];
    const DenseLayer& layer = layers[li];
    const std::size_t in = layer.fan_in();
    const std::size_t out = layer.fan_out();

    // Stack weight and bias gradients into the combined [(in+1) x out]
    // block matching the augmented-input convention.
    Matrix& grad = f.work_a;
    grad.ensure_shape(in + 1, out);
    for (std::size_t i = 0; i < in; ++i) {
      const double* src = layer.grad_weights.data() + i * out;
      double* dst = grad.data() + i * out;
      for (std::size_t j = 0; j < out; ++j) dst[j] = src[j];
    }
    for (std::size_t j = 0; j < out; ++j) grad(in, j) = layer.grad_bias(0, j);

    const double tr_a = std::max(trace(f.a) / static_cast<double>(f.a.rows()), 1e-12);
    const double tr_g = std::max(trace(f.g) / static_cast<double>(f.g.rows()), 1e-12);
    const double pi = std::sqrt(tr_a / tr_g);
    const double damp = std::sqrt(KfacConfig::damping);

    // Each intermediate overwrites a workspace whose contents are dead.
    cholesky_solve_into(f.work_b, f.a_batch, f.a, grad, pi * damp);  // A⁻¹ Ḡ
    transpose_into(f.work_a, f.work_b);
    cholesky_solve_into(f.work_b, f.g_batch, f.g, f.work_a, damp / pi);  // G⁻¹ (A⁻¹ Ḡ)ᵀ
    transpose_into(f.natural, f.work_b);                                 // A⁻¹ Ḡ G⁻¹

    // vᵀ F v ≈ tr(vᵀ A v G): cheap via the already-damped solves' inputs.
    matmul_into(f.work_a, f.a, f.natural);       // A v
    matmul_into(f.work_b, f.work_a, f.g);        // A v G
    quadratic += dot(f.natural, f.work_b);
  }

  // Trust region: eta = min(lr, sqrt(2 * kl_clip / (vᵀ F v))), plus a
  // Euclidean cap on the total step size.
  double eta = learning_rate_;
  if (quadratic > 0.0) {
    eta = std::min(eta, std::sqrt(2.0 * config_.kl_clip / quadratic));
  }
  double v_norm_sq = 0.0;
  for (const LayerFactors& f : factors_) v_norm_sq += dot(f.natural, f.natural);
  const double v_norm = std::sqrt(v_norm_sq);
  if (v_norm * eta > KfacConfig::step_norm_cap && v_norm > 0.0) {
    eta = KfacConfig::step_norm_cap / v_norm;
  }

  for (std::size_t li = 0; li < layers.size(); ++li) {
    DenseLayer& layer = layers[li];
    const Matrix& v = factors_[li].natural;
    for (std::size_t i = 0; i < layer.fan_in(); ++i) {
      for (std::size_t j = 0; j < layer.fan_out(); ++j) {
        layer.weights(i, j) -= eta * v(i, j);
      }
    }
    for (std::size_t j = 0; j < layer.fan_out(); ++j) {
      layer.bias(0, j) -= eta * v(layer.fan_in(), j);
    }
  }
}

}  // namespace dosc::nn
