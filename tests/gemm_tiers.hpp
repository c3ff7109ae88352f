// Runs a value-parameterized test once per GEMM kernel tier, so one machine
// checks every tier it can run rather than only the one the dispatch picks:
//
//   class Gemm : public test::PerGemmTier {};
//   TEST_P(Gemm, Something) { ... }
//   INSTANTIATE_TEST_SUITE_P(EveryTier, Gemm, test::kEveryGemmTier,
//                            test::gemm_tier_test_name);
//
// A tier this build lacks or this CPU cannot run skips, naming the tier.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>

#include "nn/gemm.hpp"

namespace dosc::test {

using GemmTier = nn::gemm::detail::Tier;

inline const char* gemm_tier_name(GemmTier tier) {
  switch (tier) {
    case GemmTier::kBaseline:
      return "baseline";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace dosc::test

namespace dosc::nn::gemm::detail {

/// gtest names a failing case's tier instead of dumping its bytes.
inline void PrintTo(Tier tier, std::ostream* os) { *os << test::gemm_tier_name(tier); }

}  // namespace dosc::nn::gemm::detail

namespace dosc::test {

/// Fixture: the test body runs under its parameter's tier.
class PerGemmTier : public ::testing::TestWithParam<GemmTier> {
 protected:
  void SetUp() override {
    if (!nn::gemm::detail::tier_supported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << gemm_tier_name(GetParam())
                   << " GEMM tier";
    }
    guard_.emplace(GetParam());
  }
  void TearDown() override { guard_.reset(); }

 private:
  std::optional<nn::gemm::detail::TierGuard> guard_;
};

inline const auto kEveryGemmTier =
    ::testing::Values(GemmTier::kBaseline, GemmTier::kAvx2, GemmTier::kAvx512);

inline std::string gemm_tier_test_name(const ::testing::TestParamInfo<GemmTier>& info) {
  return gemm_tier_name(info.param);
}

}  // namespace dosc::test
