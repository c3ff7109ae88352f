#include "nn/mlp.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/gemv.hpp"
#include "nn/vecmath.hpp"

namespace dosc::nn {

/// Packed gemv panels and gemm slabs for every layer, built lazily on the
/// first inference forward and invalidated by weight mutation (non-const
/// layers(), set_parameters, copy assignment). `valid` is the publication
/// flag: readers acquire-load it and only fall into the mutex on a miss, so
/// the steady-state fast path is one atomic load.
struct Mlp::PackCache {
  std::mutex mu;
  std::atomic<bool> valid{false};
  std::vector<gemv::AlignedBuffer> panels;      ///< per-layer gemv pack
  std::vector<gemv::AlignedBuffer> gemm_slabs;  ///< per-layer gemm B pack
};

Mlp::Mlp(std::vector<std::size_t> layer_sizes, Activation hidden, Activation output,
         std::uint64_t seed, double head_stddev) {
  pack_ = std::make_unique<PackCache>();
  if (layer_sizes.size() < 2) throw std::invalid_argument("Mlp: need at least in+out sizes");
  util::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    const bool is_output = (i + 2 == layer_sizes.size());
    DenseLayer layer;
    if (is_output) {
      layer.weights = Matrix::scaled_normal(layer_sizes[i], layer_sizes[i + 1], head_stddev, rng);
      layer.activation = output;
    } else {
      layer.weights = Matrix::xavier(layer_sizes[i], layer_sizes[i + 1], rng);
      layer.activation = hidden;
    }
    layer.bias = Matrix(1, layer_sizes[i + 1]);
    layer.grad_weights = Matrix(layer_sizes[i], layer_sizes[i + 1]);
    layer.grad_bias = Matrix(1, layer_sizes[i + 1]);
    layers_.push_back(std::move(layer));
  }
}

Mlp::Mlp(const Mlp& other) : layers_(other.layers_), pack_(std::make_unique<PackCache>()) {}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  layers_ = other.layers_;
  if (pack_) {
    invalidate_pack();
  } else {
    pack_ = std::make_unique<PackCache>();  // this was moved-from
  }
  return *this;
}

Mlp::Mlp(Mlp&&) noexcept = default;
Mlp& Mlp::operator=(Mlp&&) noexcept = default;
Mlp::~Mlp() = default;

void Mlp::invalidate_pack() noexcept {
  if (pack_) pack_->valid.store(false, std::memory_order_release);
}

const Mlp::PackCache& Mlp::ensure_packed() const {
  PackCache& cache = *pack_;
  if (!cache.valid.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (!cache.valid.load(std::memory_order_relaxed)) {
      cache.panels.resize(layers_.size());
      cache.gemm_slabs.resize(layers_.size());
      for (std::size_t i = 0; i < layers_.size(); ++i) {
        const DenseLayer& layer = layers_[i];
        cache.panels[i].resize(gemv::packed_size(layer.fan_in(), layer.fan_out()));
        gemv::pack(layer.fan_in(), layer.fan_out(), layer.weights.data(),
                   cache.panels[i].data());
        // Pre-packed B slab for predict_batch: the per-call pack inside
        // gemm::nn is O(k*n) per layer per forward, which at rollout batch
        // sizes (a handful of rows) rivals the product itself.
        cache.gemm_slabs[i].resize(gemm::packed_b_size(layer.fan_in(), layer.fan_out()));
        gemm::pack_b(layer.fan_in(), layer.fan_out(), layer.weights.data(),
                     layer.fan_out(), cache.gemm_slabs[i].data());
      }
      cache.valid.store(true, std::memory_order_release);
    }
  }
  return cache;
}

void Mlp::apply_activation(Matrix& m, Activation act) noexcept {
  switch (act) {
    case Activation::kLinear: return;
    case Activation::kTanh:
      vecmath::tanh_inplace(m.data(), m.size());
      return;
  }
}

const Matrix& Mlp::forward(const Matrix& x) {
  const Matrix* h = &x;
  for (DenseLayer& layer : layers_) {
    layer.input = *h;  // copy-assign reuses the cache's existing capacity
    matmul_into(layer.output, *h, layer.weights);
    add_row_vector(layer.output, layer.bias);
    apply_activation(layer.output, layer.activation);
    h = &layer.output;
  }
  return layers_.back().output;
}

Matrix Mlp::predict(const Matrix& x) const {
  Matrix h = x;
  for (const DenseLayer& layer : layers_) {
    h = matmul(h, layer.weights);
    add_row_vector(h, layer.bias);
    apply_activation(h, layer.activation);
  }
  return h;
}

void Mlp::predict_row(std::span<const double> input, std::vector<double>& out,
                      Scratch& scratch) const {
  if (input.size() != input_size()) throw std::invalid_argument("predict_row: input size");
  gemv_forward(input.data(), out, scratch);
}

void Mlp::gemv_forward(const double* input, std::vector<double>& out, Scratch& scratch) const {
  const PackCache& cache = ensure_packed();
  const double* cur = input;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const DenseLayer& layer = layers_[li];
    double* dst;
    if (li + 1 == layers_.size()) {
      out.resize(layer.fan_out());
      dst = out.data();
    } else {
      std::vector<double>& buf = (li % 2 == 0) ? scratch.a : scratch.b;
      if (buf.size() < layer.fan_out()) buf.resize(layer.fan_out());
      dst = buf.data();
    }
    gemv::bias_act(layer.fan_in(), layer.fan_out(), cur, cache.panels[li].data(),
                   layer.bias.data(), static_cast<int>(layer.activation), dst);
    cur = dst;
  }
}

std::size_t Mlp::predict_batch(const double* input, std::size_t rows, std::vector<double>& out,
                               Scratch& scratch) const {
  if (rows == 0) {
    out.clear();
    return 0;
  }
  if (rows == 1) {
    gemv_forward(input, out, scratch);
    return 1;
  }
  const PackCache& cache = ensure_packed();
  const double* cur = input;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const DenseLayer& layer = layers_[li];
    const std::size_t in = layer.fan_in();
    const std::size_t n_out = layer.fan_out();
    double* dst;
    if (li + 1 == layers_.size()) {
      out.resize(rows * n_out);
      dst = out.data();
    } else {
      std::vector<double>& buf = (li % 2 == 0) ? scratch.a : scratch.b;
      if (buf.size() < rows * n_out) buf.resize(rows * n_out);
      dst = buf.data();
    }
    gemm::nn_packed(rows, n_out, in, cur, in, cache.gemm_slabs[li].data(), dst, n_out,
                    /*accumulate=*/false);
    const double* bias = layer.bias.data();
    for (std::size_t r = 0; r < rows; ++r) {
      double* row = dst + r * n_out;
      for (std::size_t j = 0; j < n_out; ++j) row[j] += bias[j];
    }
    switch (layer.activation) {
      case Activation::kLinear: break;
      case Activation::kTanh:
        vecmath::tanh_inplace(dst, rows * n_out);
        break;
    }
    cur = dst;
  }
  return 0;
}

void Mlp::predict_row_legacy(std::span<const double> input, std::vector<double>& out,
                             Scratch& scratch) const {
  if (input.size() != input_size()) throw std::invalid_argument("predict_row: input size");
  scratch.a.assign(input.begin(), input.end());
  for (const DenseLayer& layer : layers_) {
    const std::size_t in = layer.fan_in();
    const std::size_t n_out = layer.fan_out();
    scratch.b.assign(layer.bias.data(), layer.bias.data() + n_out);
    const double* w = layer.weights.data();
    for (std::size_t i = 0; i < in; ++i) {
      const double x = scratch.a[i];
      if (x == 0.0) continue;
      const double* wrow = w + i * n_out;
      for (std::size_t j = 0; j < n_out; ++j) scratch.b[j] += x * wrow[j];
    }
    switch (layer.activation) {
      case Activation::kLinear: break;
      case Activation::kTanh:
        vecmath::tanh_inplace(scratch.b.data(), scratch.b.size());
        break;
    }
    scratch.a.swap(scratch.b);
  }
  out = scratch.a;
}

const Matrix& Mlp::backward(const Matrix& grad_output) {
  if (layers_.back().input.empty()) throw std::logic_error("Mlp::backward without forward");
  layers_.back().grad_preact = grad_output;  // copy into the reused cache
  for (std::size_t li = layers_.size(); li-- > 0;) {
    DenseLayer& layer = layers_[li];
    if (layer.input.empty()) throw std::logic_error("Mlp::backward without forward");

    // d(loss)/d(pre-activation), in place on the cached gradient.
    Matrix& grad = layer.grad_preact;
    switch (layer.activation) {
      case Activation::kLinear: break;
      case Activation::kTanh:
        for (std::size_t i = 0; i < grad.size(); ++i) {
          const double y = layer.output.data()[i];
          grad.data()[i] *= (1.0 - y * y);
        }
        break;
    }

    matmul_tn_acc(layer.grad_weights, layer.input, grad);
    add_column_sums(layer.grad_bias, grad);
    if (li > 0) matmul_nt_into(layers_[li - 1].grad_preact, grad, layer.weights);
  }
  return layers_.front().grad_preact;
}

void Mlp::zero_grad() {
  for (DenseLayer& layer : layers_) {
    layer.grad_weights.fill(0.0);
    layer.grad_bias.fill(0.0);
  }
}

double Mlp::grad_norm() const noexcept {
  double sum = 0.0;
  for (const DenseLayer& layer : layers_) {
    for (std::size_t i = 0; i < layer.grad_weights.size(); ++i) {
      sum += layer.grad_weights.data()[i] * layer.grad_weights.data()[i];
    }
    for (std::size_t i = 0; i < layer.grad_bias.size(); ++i) {
      sum += layer.grad_bias.data()[i] * layer.grad_bias.data()[i];
    }
  }
  return std::sqrt(sum);
}

void Mlp::clip_grad_norm(double max_norm) {
  const double norm = grad_norm();
  if (norm > max_norm && norm > 0.0) scale_grad(max_norm / norm);
}

void Mlp::scale_grad(double factor) {
  for (DenseLayer& layer : layers_) {
    for (std::size_t i = 0; i < layer.grad_weights.size(); ++i) {
      layer.grad_weights.data()[i] *= factor;
    }
    for (std::size_t i = 0; i < layer.grad_bias.size(); ++i) {
      layer.grad_bias.data()[i] *= factor;
    }
  }
}

std::size_t Mlp::num_parameters() const noexcept {
  std::size_t n = 0;
  for (const DenseLayer& layer : layers_) n += layer.weights.size() + layer.bias.size();
  return n;
}

std::vector<double> Mlp::get_parameters() const {
  std::vector<double> flat;
  flat.reserve(num_parameters());
  for (const DenseLayer& layer : layers_) {
    flat.insert(flat.end(), layer.weights.data(), layer.weights.data() + layer.weights.size());
    flat.insert(flat.end(), layer.bias.data(), layer.bias.data() + layer.bias.size());
  }
  return flat;
}

void Mlp::set_parameters(const std::vector<double>& flat) {
  if (flat.size() != num_parameters()) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  std::size_t offset = 0;
  for (DenseLayer& layer : layers_) {
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.weights.size(),
              layer.weights.data());
    offset += layer.weights.size();
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.bias.size(),
              layer.bias.data());
    offset += layer.bias.size();
  }
  invalidate_pack();
}

}  // namespace dosc::nn
