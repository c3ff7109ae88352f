#include "nn/gemv.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/tier.hpp"
#include "telemetry/registry.hpp"

// Kernel bodies are included once per tier, exactly like gemm.cpp: the
// baseline instantiation uses the project-wide flags; the AVX2+FMA and
// AVX-512 instantiations are compiled with function-level target overrides
// (the AVX-512 one under the GEMM's 512-bit pragma), and the one tier choice
// of nn/tier.hpp picks among them. tanh_kernels.inc rides along in each
// namespace so the fused activation epilogue computes the exact same tanh —
// same tier, same contraction pinning — as the dispatched bulk
// vecmath::tanh_inplace the batch forward uses.
#define DOSC_GEMV_NAMESPACE gemv_baseline
#define DOSC_TANH_NAMESPACE gemv_tanh_baseline
#include "nn/tanh_kernels.inc"
#include "nn/gemv_kernels.inc"
#undef DOSC_TANH_NAMESPACE
#undef DOSC_GEMV_NAMESPACE

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DOSC_GEMV_HAVE_X86_TIERS 1
#define DOSC_GEMV_FMA 1
#define DOSC_TANH_FMA 1
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define DOSC_GEMV_NAMESPACE gemv_avx2
#define DOSC_TANH_NAMESPACE gemv_tanh_avx2
#include "nn/tanh_kernels.inc"
#include "nn/gemv_kernels.inc"
#undef DOSC_TANH_NAMESPACE
#undef DOSC_GEMV_NAMESPACE
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma,prefer-vector-width=512")
#define DOSC_GEMV_NAMESPACE gemv_avx512
#define DOSC_TANH_NAMESPACE gemv_tanh_avx512
#include "nn/tanh_kernels.inc"
#include "nn/gemv_kernels.inc"
#undef DOSC_TANH_NAMESPACE
#undef DOSC_GEMV_NAMESPACE
#pragma GCC pop_options
#undef DOSC_TANH_FMA
#undef DOSC_GEMV_FMA
#endif

namespace dosc::nn::gemv {

namespace {

using GemvFn = void (*)(std::size_t in, std::size_t out, const double* x, const double* packed,
                        const double* bias, int act, double* y);

/// Indexed by detail::Tier; a build without the x86 tiers repeats the
/// baseline, which tier_supported() then never lets run.
constexpr GemvFn kTierKernels[detail::kTierCount] = {
    &gemv_baseline::gemv_bias_act,
#ifdef DOSC_GEMV_HAVE_X86_TIERS
    &gemv_avx2::gemv_bias_act,
    &gemv_avx512::gemv_bias_act,
#else
    &gemv_baseline::gemv_bias_act,
    &gemv_baseline::gemv_bias_act,
#endif
};

std::atomic<std::uint64_t> g_flops{0};
std::atomic<std::uint64_t> g_calls{0};

void record(std::size_t in, std::size_t out) {
  const std::uint64_t flops = 2ULL * in * out;
  g_flops.fetch_add(flops, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    static telemetry::Counter& flop_counter =
        telemetry::MetricsRegistry::global().counter("nn.gemv.flops");
    static telemetry::Counter& call_counter =
        telemetry::MetricsRegistry::global().counter("nn.gemv.calls");
    flop_counter.add(flops);
    call_counter.add(1);
  }
}

static_assert(gemv_baseline::kNr == kPanelWidth);
#ifdef DOSC_GEMV_HAVE_X86_TIERS
static_assert(gemv_avx2::kNr == kPanelWidth);
static_assert(gemv_avx512::kNr == kPanelWidth);
#endif

}  // namespace

std::size_t packed_size(std::size_t in, std::size_t out) noexcept {
  const std::size_t blocks = (out + kPanelWidth - 1) / kPanelWidth;
  return blocks * kPanelWidth * in;
}

void pack(std::size_t in, std::size_t out, const double* w, double* packed) {
  // Panel jb holds W[:, j0:j0+nc) as [in x kPanelWidth] rows, zero-padded on
  // the right edge. The layout is a pure copy — no arithmetic — so packing
  // needs no tier dispatch and a pack is valid for every kernel tier.
  double* dst = packed;
  for (std::size_t j0 = 0; j0 < out; j0 += kPanelWidth) {
    const std::size_t nc = std::min(kPanelWidth, out - j0);
    const double* src = w + j0;
    for (std::size_t p = 0; p < in; ++p, src += out, dst += kPanelWidth) {
      for (std::size_t j = 0; j < nc; ++j) dst[j] = src[j];
      for (std::size_t j = nc; j < kPanelWidth; ++j) dst[j] = 0.0;
    }
  }
}

void bias_act(std::size_t in, std::size_t out, const double* x, const double* packed,
              const double* bias, int activation, double* y) {
  record(in, out);
  kTierKernels[static_cast<int>(detail::active_tier())](in, out, x, packed, bias, activation,
                                                        y);
}

std::uint64_t flop_count() noexcept { return g_flops.load(std::memory_order_relaxed); }
std::uint64_t call_count() noexcept { return g_calls.load(std::memory_order_relaxed); }

}  // namespace dosc::nn::gemv
