// Tests for the batch-1 GEMV kernels behind Mlp::predict_row.
//
// The fast path's contract is stronger than approximate correctness: at the
// dispatched ISA level, predict_row is BIT-IDENTICAL to the batch forward
// (Mlp::predict), because both reduce each output element over the input
// dimension in ascending order with a single accumulator, add the bias once
// after the reduction, and apply the activation last. These tests therefore
// use exact floating-point equality throughout, across layer shapes that
// straddle the 32-wide panel edge, and verify the pack cache tracks weight
// mutation. The oracle comparisons run under every kernel tier the CPU
// runs (kernel_tiers.hpp), and the AVX-512 tier is pinned to the AVX2+FMA
// one directly.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernel_tiers.hpp"
#include "nn/gemv.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/parallel.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

std::vector<double> random_vector(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

/// Count of elements that differ in their bit pattern.
std::size_t mismatches(const std::vector<double>& a, const double* b) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

void expect_row_matches_batch(const Mlp& net, std::span<const double> input) {
  Matrix x(1, input.size());
  std::copy(input.begin(), input.end(), x.data());
  const Matrix batch = net.predict(x);
  std::vector<double> row;
  Mlp::Scratch scratch;
  net.predict_row(input, row, scratch);
  ASSERT_EQ(row.size(), batch.cols());
  EXPECT_EQ(mismatches(row, batch.data()), 0u);
}

// Widths straddling the kPanelWidth = 32 panel edge in every way: below,
// at, just above, a multiple, and odd remainders; plus single-output heads.
const std::size_t kWidths[] = {1, 2, 5, 31, 32, 33, 64, 65, 100};

TEST(Gemv, PackedSizeRoundsUpToPanels) {
  EXPECT_EQ(gemv::packed_size(3, 1), 3u * 32u);
  EXPECT_EQ(gemv::packed_size(3, 32), 3u * 32u);
  EXPECT_EQ(gemv::packed_size(3, 33), 3u * 64u);
  EXPECT_EQ(gemv::packed_size(7, 100), 7u * 128u);
}

using detail::Tier;

/// Runs under each kernel tier; see kernel_tiers.hpp.
class Gemv : public test::PerTier {};

INSTANTIATE_TEST_SUITE_P(EveryTier, Gemv, test::kEveryTier, test::tier_test_name);

/// bias_act over a freshly packed [in x out] weight matrix.
std::vector<double> packed_bias_act(std::size_t in, std::size_t out, const std::vector<double>& w,
                                    const std::vector<double>& bias,
                                    const std::vector<double>& x, int activation) {
  gemv::AlignedBuffer packed;
  packed.resize(gemv::packed_size(in, out));
  gemv::pack(in, out, w.data(), packed.data());
  std::vector<double> y(out);
  gemv::bias_act(in, out, x.data(), packed.data(), bias.data(), activation, y.data());
  return y;
}

TEST_P(Gemv, BiasActMatchesUnpackedReference) {
  util::Rng rng(11);
  for (std::size_t in : kWidths) {
    for (std::size_t out : kWidths) {
      const std::vector<double> w = random_vector(in * out, rng);
      const std::vector<double> bias = random_vector(out, rng);
      const std::vector<double> x = random_vector(in, rng);
      const std::vector<double> y = packed_bias_act(in, out, w, bias, x, /*linear*/ 0);
      // Reference: the batch-forward operation order at the same ISA —
      // matmul (ascending-k single accumulator), then bias.
      Matrix xm(1, in), wm(in, out);
      std::copy(x.begin(), x.end(), xm.data());
      std::copy(w.begin(), w.end(), wm.data());
      Matrix ref = matmul(xm, wm);
      for (std::size_t j = 0; j < out; ++j) ref.data()[j] += bias[j];
      EXPECT_EQ(mismatches(y, ref.data()), 0u) << in << "x" << out;
    }
  }
}

TEST_P(Gemv, PredictRowBitExactAgainstBatchForward) {
  util::Rng rng(42);
  for (std::size_t h : {5u, 31u, 33u, 64u, 256u}) {
    const Mlp net({13, h, h, 4}, Activation::kTanh, Activation::kLinear, 7);
    for (int trial = 0; trial < 5; ++trial) {
      expect_row_matches_batch(net, random_vector(13, rng));
    }
  }
}

TEST(Gemv, PredictRowBitExactForSingleOutput) {
  util::Rng rng(3);
  const Mlp head({6, 33, 1}, Activation::kTanh, Activation::kTanh, 22);
  expect_row_matches_batch(head, random_vector(6, rng));
}

TEST(Gemv, PredictRowInvariantUnderComputeThreads) {
  // predict() runs through the GEMM, predict_row() through the GEMV; the
  // equality must hold at any compute-thread budget.
  util::Rng rng(5);
  const Mlp net({20, 64, 64, 6}, Activation::kTanh, Activation::kLinear, 1);
  const std::vector<double> x = random_vector(20, rng);
  std::vector<double> row;
  Mlp::Scratch scratch;
  net.predict_row(x, row, scratch);
  for (std::size_t threads : {1u, 2u, 4u}) {
    ComputeThreadsGuard guard(threads);
    Matrix xm(1, 20);
    std::copy(x.begin(), x.end(), xm.data());
    const Matrix batch = net.predict(xm);
    EXPECT_EQ(mismatches(row, batch.data()), 0u) << threads << " threads";
  }
}

TEST(Gemv, PackCacheInvalidatedByWeightMutation) {
  util::Rng rng(8);
  Mlp net({10, 33, 3}, Activation::kTanh, Activation::kLinear, 2);
  const std::vector<double> x = random_vector(10, rng);
  std::vector<double> before;
  Mlp::Scratch scratch;
  net.predict_row(x, before, scratch);  // packs

  // Mutation through the non-const layers() accessor (the optimizer path).
  net.layers()[0].weights.data()[0] += 0.5;
  expect_row_matches_batch(net, x);
  std::vector<double> after;
  net.predict_row(x, after, scratch);
  EXPECT_NE(before, after);

  // Mutation through set_parameters (the policy-deployment path).
  std::vector<double> params = net.get_parameters();
  for (double& p : params) p *= 0.9;
  net.set_parameters(params);
  expect_row_matches_batch(net, x);
}

TEST(Gemv, CopiedNetworkPacksIndependently) {
  util::Rng rng(9);
  Mlp net({8, 32, 2}, Activation::kTanh, Activation::kLinear, 4);
  const std::vector<double> x = random_vector(8, rng);
  std::vector<double> a, b;
  Mlp::Scratch scratch;
  net.predict_row(x, a, scratch);
  Mlp copy = net;
  copy.layers()[0].weights.data()[0] += 1.0;
  copy.predict_row(x, b, scratch);
  EXPECT_NE(a, b);
  // The original's cache is untouched by the copy's mutation.
  std::vector<double> again;
  net.predict_row(x, again, scratch);
  EXPECT_EQ(a, again);
}

TEST(Gemv, FmaTiersAreBitIdentical) {
  // Each tier matches its own GEMM (the EveryTier tests); this pins the
  // AVX-512 GEMV to the AVX2+FMA one directly, across the 32-wide panel
  // edge, a multi-panel input and both activations.
  for (const Tier tier : {Tier::kAvx2, Tier::kAvx512}) {
    if (!detail::tier_supported(tier)) {
      GTEST_SKIP() << "this CPU cannot run the " << test::tier_name(tier) << " kernel tier";
    }
  }
  util::Rng rng(13);
  for (const std::size_t in : {1u, 7u, 32u, 257u}) {
    for (const std::size_t out : {1u, 8u, 31u, 33u, 256u}) {
      const std::vector<double> w = random_vector(in * out, rng);
      const std::vector<double> bias = random_vector(out, rng);
      const std::vector<double> x = random_vector(in, rng);
      for (const int activation : {0, 1}) {
        const auto run = [&](Tier tier) {
          detail::TierGuard guard(tier);
          return packed_bias_act(in, out, w, bias, x, activation);
        };
        const std::vector<double> avx512 = run(Tier::kAvx512);
        EXPECT_EQ(mismatches(run(Tier::kAvx2), avx512.data()), 0u)
            << in << "x" << out << (activation == 0 ? " linear" : " tanh");
      }
    }
  }
}

TEST(Gemv, FlopAndCallCountersAdvance) {
  const std::uint64_t flops0 = gemv::flop_count();
  const std::uint64_t calls0 = gemv::call_count();
  util::Rng rng(12);
  const Mlp net({4, 8, 2}, Activation::kTanh, Activation::kLinear, 3);
  std::vector<double> out;
  Mlp::Scratch scratch;
  net.predict_row(random_vector(4, rng), out, scratch);
  EXPECT_EQ(gemv::call_count() - calls0, 2u);
  EXPECT_EQ(gemv::flop_count() - flops0, 2u * (4 * 8 + 8 * 2));
}

}  // namespace
}  // namespace dosc::nn
