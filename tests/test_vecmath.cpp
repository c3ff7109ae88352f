#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernel_tiers.hpp"
#include "nn/vecmath.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

// The project tanh replaced std::tanh as the Mlp activation so the
// activation loops vectorize (DESIGN.md section 13.4). These tests pin the
// two properties everything downstream rests on: scalar/bulk bit-identity
// (the gemv fused epilogue vs the batch forward's array application) and
// near-libm accuracy across the full input range. The bit-identity checks
// run under every kernel tier the CPU runs (kernel_tiers.hpp).

using detail::Tier;

/// Runs under each kernel tier; see kernel_tiers.hpp.
class Vecmath : public test::PerTier {};

INSTANTIATE_TEST_SUITE_P(EveryTier, Vecmath, test::kEveryTier, test::tier_test_name);

/// Normals plus ± every seventh power of ten from 1e-300 to 1e2.
std::vector<double> scalar_and_array_inputs() {
  util::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.normal(0.0, 4.0));
  for (int exp10 = -300; exp10 <= 2; exp10 += 7) {
    xs.push_back(std::pow(10.0, exp10));
    xs.push_back(-std::pow(10.0, exp10));
  }
  return xs;
}

/// The accuracy sweep of MatchesLibmTanhToAFewUlp.
std::vector<double> libm_sweep_inputs() {
  util::Rng rng(12);
  std::vector<double> xs;
  for (int i = 0; i < 200000; ++i) {
    double x = rng.normal(0.0, 6.0);
    if (i % 3 == 0) x *= 1e-6;
    if (i % 997 == 0) x *= 1e-200;
    xs.push_back(x);
  }
  return xs;
}

TEST_P(Vecmath, ScalarAndArrayApplicationsAreBitIdentical) {
  const std::vector<double> xs = scalar_and_array_inputs();
  std::vector<double> bulk = xs;
  vecmath::tanh_inplace(bulk.data(), bulk.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double one = vecmath::tanh1(xs[i]);
    EXPECT_EQ(one, bulk[i]) << "x=" << xs[i];
  }
}

TEST(Vecmath, MatchesLibmTanhToAFewUlp) {
  double max_abs = 0.0;
  double max_rel = 0.0;
  for (const double x : libm_sweep_inputs()) {
    const double ref = std::tanh(x);
    const double got = vecmath::tanh1(x);
    const double abs = std::fabs(got - ref);
    max_abs = std::max(max_abs, abs);
    if (ref != 0.0) max_rel = std::max(max_rel, abs / std::fabs(ref));
  }
  EXPECT_LT(max_abs, 5e-16);
  EXPECT_LT(max_rel, 2e-15);
}

TEST(Vecmath, OddSymmetryIsExact) {
  util::Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(0.0, 5.0);
    EXPECT_EQ(vecmath::tanh1(-x), -vecmath::tanh1(x)) << "x=" << x;
  }
}

TEST(Vecmath, EdgeCases) {
  EXPECT_EQ(vecmath::tanh1(0.0), 0.0);
  EXPECT_FALSE(std::signbit(vecmath::tanh1(0.0)));
  EXPECT_EQ(vecmath::tanh1(-0.0), -0.0);
  EXPECT_TRUE(std::signbit(vecmath::tanh1(-0.0)));
  // Below tanh's curvature scale the function is the identity in double.
  EXPECT_EQ(vecmath::tanh1(1e-300), 1e-300);
  EXPECT_EQ(vecmath::tanh1(-1e-300), -1e-300);
  // Saturation: exactly 1.0 from ~18.7 out, through infinity.
  EXPECT_EQ(vecmath::tanh1(19.0), 1.0);
  EXPECT_EQ(vecmath::tanh1(700.0), 1.0);
  EXPECT_EQ(vecmath::tanh1(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_EQ(vecmath::tanh1(-std::numeric_limits<double>::infinity()), -1.0);
  EXPECT_TRUE(std::isnan(vecmath::tanh1(std::numeric_limits<double>::quiet_NaN())));
}

TEST(Vecmath, FmaTiersAreBitIdentical) {
  // Each tier is self-consistent (the EveryTier case); this pins the
  // AVX-512 tanh to the AVX2+FMA one directly, in bulk and per element,
  // over the whole sweep of this file plus signed zeros, infinities, NaN
  // and denormals.
  for (const Tier tier : {Tier::kAvx2, Tier::kAvx512}) {
    if (!detail::tier_supported(tier)) {
      GTEST_SKIP() << "this CPU cannot run the " << test::tier_name(tier) << " kernel tier";
    }
  }
  std::vector<double> xs = scalar_and_array_inputs();
  const std::vector<double> sweep = libm_sweep_inputs();
  xs.insert(xs.end(), sweep.begin(), sweep.end());
  util::Rng rng(14);
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.normal(0.0, 5.0));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  constexpr double kNormMin = std::numeric_limits<double>::min();
  for (const double special :
       {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), kDenormMin,
        -kDenormMin, kNormMin / 2.0, -kNormMin / 3.0, kNormMin - kDenormMin, 18.7, 19.0, 700.0}) {
    xs.push_back(special);
  }
  const auto run = [&](Tier tier, bool bulk) {
    detail::TierGuard guard(tier);
    std::vector<double> ys = xs;
    if (bulk) {
      vecmath::tanh_inplace(ys.data(), ys.size());
    } else {
      for (double& y : ys) y = vecmath::tanh1(y);
    }
    return ys;
  };
  for (const bool bulk : {true, false}) {
    const std::vector<double> avx2 = run(Tier::kAvx2, bulk);
    const std::vector<double> avx512 = run(Tier::kAvx512, bulk);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (std::memcmp(&avx2[i], &avx512[i], sizeof(double)) != 0) {
        if (++bad <= 5) ADD_FAILURE() << "x=" << xs[i] << (bulk ? " bulk" : " scalar");
      }
    }
    EXPECT_EQ(bad, 0u) << (bulk ? "bulk" : "scalar");
  }
}

TEST(Vecmath, ReportsDispatchedIsa) {
  const std::string isa = vecmath::tanh_isa();
  EXPECT_TRUE(isa == "avx2+fma" || isa == "baseline") << isa;
}

}  // namespace
}  // namespace dosc::nn
