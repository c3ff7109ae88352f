// The one instruction-set tier every NN kernel family runs at.
//
// gemm, gemv, vecmath (tanh) and the damped Cholesky (matrix.cpp) each
// compile their kernel bodies three times from one include file — a
// portable baseline, an AVX2+FMA tier and an AVX-512 tier, the last two
// under `#pragma GCC target` — and each indexes its three-entry kernel table
// by active_tier(). The tier is chosen once, from cpuid, in tier.cpp: the
// widest one whose every pragma feature the CPU has (avx512f+avx2+fma, then
// avx2+fma, else baseline). No option, environment variable or config field
// selects it, so the four families can never run different tiers and a
// batch forward (GEMM + bulk tanh) always rounds like the per-decision GEMV
// with its fused tanh.
//
// The AVX2+FMA and AVX-512 tiers share one rounding contract (one fused
// multiply-add per accumulation step, in the same order), so their results
// are bit-identical; the baseline multiplies, then adds. The Cholesky has
// no FMA in any tier (matrix.cpp is built with -ffp-contract=off), so all
// three of its tiers equal its scalar oracle bit for bit.
#pragma once

namespace dosc::nn::detail {

/// The kernel tiers, narrowest first; the value indexes each family's
/// kernel table.
enum class Tier { kBaseline, kAvx2, kAvx512 };
inline constexpr int kTierCount = 3;

/// Whether this build has `tier` and this CPU can run it.
bool tier_supported(Tier tier) noexcept;

/// The tier every kernel family currently runs.
Tier active_tier() noexcept;

/// RAII tier override for tests, so one machine can check every tier it
/// supports; it switches all four kernel families at once and restores the
/// previous tier on destruction. Throws std::invalid_argument for a tier
/// tier_supported() rejects. Switch tiers only while no kernel is running.
class TierGuard {
 public:
  explicit TierGuard(Tier tier);
  ~TierGuard();
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  Tier previous_;
};

}  // namespace dosc::nn::detail
