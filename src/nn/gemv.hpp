// Dedicated batch-1 GEMV kernels for the per-decision inference fast path.
//
// A coordination decision is one observation through actor (and sometimes
// critic) MLPs — an m=1 product for which the tiled GEMM machinery (panel
// packing per call, thread partitioning) is pure overhead. These kernels
// instead consume weights pre-packed once per policy into column panels of
// kPanelWidth (owned by Mlp, invalidated on weight mutation), so each layer
// is a run of stride-1 dot products with the bias addition and activation
// fused into the same pass.
//
// Determinism contract (same as gemm): each output element is reduced over
// the input dimension in ascending order by a single accumulator, every
// accumulation step goes through the per-ISA madd() pinning, the bias is
// added once after the full reduction, and the activation is applied last.
// That is operation-for-operation the batch forward (matmul →
// add_row_vector → apply_activation), so at a given ISA level
// Mlp::predict_row is bit-identical to Mlp::predict. Runtime dispatch picks
// AVX2+FMA when the CPU supports it, with a portable baseline otherwise —
// the same cpuid gate as gemm, so gemv and gemm always agree on contraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

namespace dosc::nn::gemv {

/// 64-byte-aligned storage for packed panels. std::vector<double> only
/// guarantees 16-byte alignment, which makes every 32-byte vector load in
/// the AVX2 kernel straddle a cache line half the time — measured ~2x
/// slower on the dominant 256x256 layer. Cache-line alignment keeps the
/// kernel at L2 streaming speed.
class AlignedBuffer {
 public:
  /// Discards existing contents; the new storage is uninitialised.
  void resize(std::size_t n) {
    const std::size_t bytes = ((n * sizeof(double) + 63) / 64) * 64;
    data_.reset(static_cast<double*>(std::aligned_alloc(64, bytes)));
    size_ = n;
  }
  double* data() noexcept { return data_.get(); }
  const double* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept { return size_; }

 private:
  struct Free {
    void operator()(double* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<double[], Free> data_;
  std::size_t size_ = 0;
};

/// Packed-panel column-block width (doubles). Panels are [in x kPanelWidth]
/// row-major slabs, one per block of output columns, zero-padded on the
/// right edge; layout is ISA-independent so a pack survives a dispatch
/// change.
inline constexpr std::size_t kPanelWidth = 32;

/// Number of doubles pack() writes for an [in x out] weight matrix.
std::size_t packed_size(std::size_t in, std::size_t out) noexcept;

/// Pack the row-major [in x out] weight matrix into column panels.
/// `packed` must hold packed_size(in, out) doubles.
void pack(std::size_t in, std::size_t out, const double* w, double* packed);

/// y[0..out) = act(bias + x^T W) over a packed weight matrix. `activation`
/// uses the nn::Activation enum encoding (0 = linear, 1 = tanh, 2 = relu).
/// Allocation-free; y must not alias x.
void bias_act(std::size_t in, std::size_t out, const double* x, const double* packed,
              const double* bias, int activation, double* y);

/// The rounding contract of the dispatched kernels ("avx2+fma" / "baseline"),
/// named as gemm::isa_name() names it. GEMV has no AVX-512 tier: the
/// sequential decide it serves is bound by L2 bandwidth, not by FMA width.
const char* isa_name() noexcept;

/// Cumulative 2*in*out over all bias_act calls in this process, and the
/// number of calls (the per-decision fast-path hit count). Always on (two
/// relaxed atomic adds per call); mirrored into the telemetry counters
/// `nn.gemv.flops` / `nn.gemv.calls` when telemetry is enabled.
std::uint64_t flop_count() noexcept;
std::uint64_t call_count() noexcept;

}  // namespace dosc::nn::gemv
