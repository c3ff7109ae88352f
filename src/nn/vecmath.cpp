#include "nn/vecmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "nn/tier.hpp"

// Kernel bodies are included once per tier, exactly like gemm.cpp /
// gemv.cpp: the baseline instantiation uses the project-wide flags; the
// AVX2+FMA and AVX-512 instantiations are compiled with function-level
// target overrides, and the one tier choice of nn/tier.hpp picks among them.
// This file is compiled with -fno-trapping-math (see src/nn/CMakeLists.txt)
// so the branch-free kernel loop actually vectorizes.
#define DOSC_TANH_NAMESPACE vecmath_baseline
#include "nn/tanh_kernels.inc"
#undef DOSC_TANH_NAMESPACE

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DOSC_TANH_HAVE_X86_TIERS 1
#define DOSC_TANH_FMA 1
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define DOSC_TANH_NAMESPACE vecmath_avx2
#include "nn/tanh_kernels.inc"
#undef DOSC_TANH_NAMESPACE
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma,prefer-vector-width=512")
#define DOSC_TANH_NAMESPACE vecmath_avx512
#include "nn/tanh_kernels.inc"
#undef DOSC_TANH_NAMESPACE
#pragma GCC pop_options
#undef DOSC_TANH_FMA
#endif

namespace dosc::nn::vecmath {

namespace {

using TanhFn = void (*)(double* v, std::size_t count);

struct KernelSet {
  TanhFn tanh_inplace;
  const char* isa;
};

/// Indexed by detail::Tier; a build without the x86 tiers repeats the
/// baseline, which tier_supported() then never lets run.
constexpr KernelSet kTierSets[detail::kTierCount] = {
    {&vecmath_baseline::tanh_inplace, "baseline"},
#ifdef DOSC_TANH_HAVE_X86_TIERS
    {&vecmath_avx2::tanh_inplace, "avx2+fma"},
    {&vecmath_avx512::tanh_inplace, "avx2+fma"},
#else
    {&vecmath_baseline::tanh_inplace, "baseline"},
    {&vecmath_baseline::tanh_inplace, "baseline"},
#endif
};

const KernelSet& kernels() noexcept {
  return kTierSets[static_cast<int>(detail::active_tier())];
}

}  // namespace

void tanh_inplace(double* v, std::size_t count) { kernels().tanh_inplace(v, count); }

double tanh1(double x) {
  kernels().tanh_inplace(&x, 1);
  return x;
}

const char* tanh_isa() noexcept { return kernels().isa; }

}  // namespace dosc::nn::vecmath
