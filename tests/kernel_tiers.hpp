// Runs a value-parameterized test once per NN kernel tier (nn/tier.hpp), so
// one machine checks every tier it can run rather than only the one the
// dispatch picks. The tier switches gemm, gemv, tanh and the Cholesky
// together:
//
//   class Gemm : public test::PerTier {};
//   TEST_P(Gemm, Something) { ... }
//   INSTANTIATE_TEST_SUITE_P(EveryTier, Gemm, test::kEveryTier,
//                            test::tier_test_name);
//
// A tier this build lacks or this CPU cannot run skips, naming the tier.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>

#include "nn/tier.hpp"

namespace dosc::test {

using Tier = nn::detail::Tier;

inline const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kBaseline:
      return "baseline";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace dosc::test

namespace dosc::nn::detail {

/// gtest names a failing case's tier instead of dumping its bytes.
inline void PrintTo(Tier tier, std::ostream* os) { *os << test::tier_name(tier); }

}  // namespace dosc::nn::detail

namespace dosc::test {

/// Fixture: the test body runs under its parameter's tier.
class PerTier : public ::testing::TestWithParam<Tier> {
 protected:
  void SetUp() override {
    if (!nn::detail::tier_supported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << tier_name(GetParam()) << " kernel tier";
    }
    guard_.emplace(GetParam());
  }
  void TearDown() override { guard_.reset(); }

 private:
  std::optional<nn::detail::TierGuard> guard_;
};

inline const auto kEveryTier = ::testing::Values(Tier::kBaseline, Tier::kAvx2, Tier::kAvx512);

inline std::string tier_test_name(const ::testing::TestParamInfo<Tier>& info) {
  return tier_name(info.param);
}

}  // namespace dosc::test
