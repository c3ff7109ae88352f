#include "nn/tier.hpp"

#include <atomic>
#include <stdexcept>

namespace dosc::nn::detail {

namespace {

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
// Each check covers every feature the tier's #pragma GCC target enables.
bool cpu_has_fma() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool cpu_has_avx512() noexcept { return cpu_has_fma() && __builtin_cpu_supports("avx512f"); }
#else
// The kernel files compile their x86 tiers under the same condition.
bool cpu_has_fma() noexcept { return false; }
bool cpu_has_avx512() noexcept { return false; }
#endif

/// The dispatched tier: the widest one the CPU runs, unless a TierGuard
/// overrides it.
std::atomic<Tier>& active() {
  static std::atomic<Tier> tier{cpu_has_avx512() ? Tier::kAvx512
                                : cpu_has_fma()  ? Tier::kAvx2
                                                 : Tier::kBaseline};
  return tier;
}

}  // namespace

bool tier_supported(Tier tier) noexcept {
  switch (tier) {
    case Tier::kBaseline:
      return true;
    case Tier::kAvx2:
      return cpu_has_fma();
    case Tier::kAvx512:
      return cpu_has_avx512();
  }
  return false;
}

Tier active_tier() noexcept { return active().load(std::memory_order_relaxed); }

TierGuard::TierGuard(Tier tier) : previous_(active_tier()) {
  if (!tier_supported(tier)) {
    throw std::invalid_argument("nn: this CPU cannot run the requested kernel tier");
  }
  active().store(tier, std::memory_order_relaxed);
}

TierGuard::~TierGuard() { active().store(previous_, std::memory_order_relaxed); }

}  // namespace dosc::nn::detail
