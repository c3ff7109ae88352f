// Tests for the tiled GEMM kernels behind the Matrix API.
//
// The kernels promise more than approximate correctness: every output
// element is reduced over k in ascending order by a single accumulator, so
// tiled results are BIT-IDENTICAL to the naive reference kernels (compiled
// at the same ISA level) and invariant under the compute-thread count.
// These tests therefore use exact floating-point equality throughout. The
// tiled and reference kernels are checked once per kernel tier the CPU can
// run (gemm_tiers.hpp), not just the one the dispatch selects.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gemm_tiers.hpp"
#include "nn/gemm.hpp"
#include "nn/matrix.hpp"
#include "nn/parallel.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

/// Number of elements that are not bit-identical (counts, so a systematic
/// failure reports one number instead of thousands of EXPECT lines).
std::size_t mismatches(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return a.size() + b.size() + 1;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

using gemm::detail::Tier;

/// Runs under each kernel tier; see gemm_tiers.hpp.
class Gemm : public test::PerGemmTier {};

INSTANTIATE_TEST_SUITE_P(EveryTier, Gemm, test::kEveryGemmTier, test::gemm_tier_test_name);

// Shapes straddling every edge case of the register tiles (4x8, and 4x16
// over two packed 8-column panels) and the packed panels: below/at/above
// each tile in each dimension, odd remainders, a 16-wide tile with a
// partial second panel (13, 15), and sizes large enough to hit the
// multi-tile loops.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 31, 32, 33};

TEST_P(Gemm, TiledMatchesReferenceExhaustively) {
  ComputeThreadsGuard guard(1);
  util::Rng rng(42);
  for (std::size_t m : kSizes) {
    for (std::size_t n : kSizes) {
      for (std::size_t k : kSizes) {
        const Matrix a = random_matrix(m, k, rng);
        const Matrix b = random_matrix(k, n, rng);
        EXPECT_EQ(mismatches(matmul(a, b), matmul_reference(a, b)), 0u)
            << "nn " << m << "x" << n << "x" << k;

        const Matrix at = random_matrix(k, m, rng);
        EXPECT_EQ(mismatches(matmul_tn(at, b), matmul_tn_reference(at, b)), 0u)
            << "tn " << m << "x" << n << "x" << k;

        const Matrix bt = random_matrix(n, k, rng);
        EXPECT_EQ(mismatches(matmul_nt(a, bt), matmul_nt_reference(a, bt)), 0u)
            << "nt " << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST_P(Gemm, ThreadCountInvariance) {
  util::Rng rng(43);
  const std::size_t shapes[][3] = {{67, 45, 33}, {128, 64, 96}, {257, 129, 65}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[2], rng);
    const Matrix b = random_matrix(s[2], s[1], rng);
    const Matrix at = random_matrix(s[2], s[0], rng);
    const Matrix bt = random_matrix(s[1], s[2], rng);
    Matrix c1, c4, tn1, tn4, nt1, nt4;
    {
      ComputeThreadsGuard guard(1);
      matmul_into(c1, a, b);
      matmul_tn_into(tn1, at, b);
      matmul_nt_into(nt1, a, bt);
    }
    {
      ComputeThreadsGuard guard(4);
      matmul_into(c4, a, b);
      matmul_tn_into(tn4, at, b);
      matmul_nt_into(nt4, a, bt);
    }
    EXPECT_EQ(mismatches(c1, c4), 0u) << "nn " << s[0] << "x" << s[1] << "x" << s[2];
    EXPECT_EQ(mismatches(tn1, tn4), 0u) << "tn " << s[0] << "x" << s[1] << "x" << s[2];
    EXPECT_EQ(mismatches(nt1, nt4), 0u) << "nt " << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Gemm, GramMatchesFullTransposeProduct) {
  util::Rng rng(44);
  for (std::size_t m : {1u, 5u, 8u, 13u, 33u, 64u}) {
    for (std::size_t k : {1u, 7u, 32u, 101u}) {
      const Matrix a = random_matrix(k, m, rng);
      Matrix c(m, m);
      gemm::gram(m, k, a.data(), a.cols(), c.data(), c.cols());
      // Full triangle (mirror included) must be bit-identical to the
      // unrestricted A^T A.
      EXPECT_EQ(mismatches(c, matmul_tn(a, a)), 0u) << "gram " << m << "x" << k;
    }
  }
}

TEST(Gemm, AccumulateEqualsProductPlusAddition) {
  util::Rng rng(45);
  const Matrix a = random_matrix(29, 11, rng);
  const Matrix b = random_matrix(29, 19, rng);
  Matrix c = random_matrix(11, 19, rng);
  Matrix expected = c;
  const Matrix product = matmul_tn(a, b);
  for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += product.data()[i];
  matmul_tn_acc(c, a, b);
  EXPECT_EQ(mismatches(c, expected), 0u);
}

TEST(Gemm, IntoReusesDestinationAcrossShapes) {
  util::Rng rng(46);
  Matrix c;
  // Grow, shrink, regrow: the destination is reshaped in place each time
  // and the result must match a freshly allocated product.
  for (const auto& s : {std::pair<std::size_t, std::size_t>{24, 16}, {8, 4}, {33, 17}}) {
    const Matrix a = random_matrix(s.first, 21, rng);
    const Matrix b = random_matrix(21, s.second, rng);
    matmul_into(c, a, b);
    ASSERT_EQ(c.rows(), s.first);
    ASSERT_EQ(c.cols(), s.second);
    EXPECT_EQ(mismatches(c, matmul_reference(a, b)), 0u);
  }
}

TEST(Gemm, ShapeAndAliasErrors) {
  util::Rng rng(47);
  Matrix a = random_matrix(4, 3, rng);
  Matrix b = random_matrix(3, 5, rng);
  Matrix wrong = random_matrix(4, 5, rng);
  Matrix c;
  EXPECT_THROW(matmul_into(c, a, wrong), std::invalid_argument);
  EXPECT_THROW(matmul_tn_into(c, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_nt_into(c, a, b), std::invalid_argument);
  EXPECT_THROW(matmul_into(a, a, b), std::invalid_argument);  // c aliases a
  Matrix acc(3, 4);  // wrong destination shape for tn_acc (wants 3x5)
  EXPECT_THROW(matmul_tn_acc(acc, a, b), std::invalid_argument);
}

TEST(Gemm, FlopCounterAdvances) {
  util::Rng rng(48);
  const Matrix a = random_matrix(16, 24, rng);
  const Matrix b = random_matrix(24, 8, rng);
  const std::uint64_t flops0 = gemm::flop_count();
  const std::uint64_t calls0 = gemm::call_count();
  (void)matmul(a, b);
  EXPECT_EQ(gemm::flop_count() - flops0, 2ull * 16 * 8 * 24);
  EXPECT_EQ(gemm::call_count() - calls0, 1u);
  EXPECT_TRUE(gemm::isa_name() != nullptr);
}

// Reductions that straddle the kernels' k-panel: one short of it, exactly
// one panel, one past it (a one-deep second panel), two panels plus a
// remainder, and a training-sized batch. Each element's accumulator is
// carried through C between panels, so every kernel must still equal the
// unblocked reference bit for bit, at any thread count, and `accumulate`
// must still add the fully reduced product to C exactly once.
constexpr std::size_t kPanel = 256;
const std::size_t kPanelKs[] = {kPanel - 1, kPanel, kPanel + 1, 2 * kPanel + 3, 2400};

/// expected = c0 + product, one addition per element.
Matrix plus(const Matrix& c0, const Matrix& product) {
  Matrix expected = c0;
  for (std::size_t i = 0; i < expected.size(); ++i) expected.data()[i] += product.data()[i];
  return expected;
}

TEST_P(Gemm, KPanelBlockingMatchesReference) {
  util::Rng rng(49);
  // m spans several 4-row tiles plus an edge and, at 4 threads, splits into
  // 3-4 row chunks at every k. n = 21 ends in a partial panel that a 16-wide
  // tier runs as a one-panel tile, n = 29 in a 16-wide tile with a partial
  // second panel.
  const std::size_t m = 133;
  for (const std::size_t n : {21u, 29u}) {
    for (const std::size_t k : kPanelKs) {
      const Matrix a = random_matrix(m, k, rng);     // nn / nt left operand
      const Matrix at = random_matrix(k, m, rng);    // tn left operand, [k x m]
      const Matrix b = random_matrix(k, n, rng);     // nn / tn right operand
      const Matrix bt = random_matrix(n, k, rng);    // nt right operand, [n x k]
      const Matrix c0 = random_matrix(m, n, rng);    // non-zero C for accumulate
      const Matrix ref_nn = matmul_reference(a, b);
      const Matrix ref_tn = matmul_tn_reference(at, b);
      const Matrix ref_nt = matmul_nt_reference(a, bt);
      std::vector<double> slab(gemm::packed_b_size(k, n));
      gemm::pack_b(k, n, b.data(), b.cols(), slab.data());

      for (const std::size_t threads : {1u, 4u}) {
        ComputeThreadsGuard guard(threads);
        for (const bool acc : {false, true}) {
          const auto run = [&](auto&& kernel) {
            Matrix c = acc ? c0 : Matrix(m, n);
            kernel(c);
            return c;
          };
          const std::string what = " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                   " threads=" + std::to_string(threads) +
                                   (acc ? " accumulate" : "");
          const Matrix got_nn = run([&](Matrix& c) {
            gemm::nn(m, n, k, a.data(), k, b.data(), n, c.data(), n, acc);
          });
          const Matrix got_packed = run([&](Matrix& c) {
            gemm::nn_packed(m, n, k, a.data(), k, slab.data(), c.data(), n, acc);
          });
          const Matrix got_tn = run([&](Matrix& c) {
            gemm::tn(m, n, k, at.data(), m, b.data(), n, c.data(), n, acc);
          });
          const Matrix got_nt = run([&](Matrix& c) {
            gemm::nt(m, n, k, a.data(), k, bt.data(), k, c.data(), n, acc);
          });
          EXPECT_EQ(mismatches(got_nn, acc ? plus(c0, ref_nn) : ref_nn), 0u) << "nn" << what;
          EXPECT_EQ(mismatches(got_packed, acc ? plus(c0, ref_nn) : ref_nn), 0u)
              << "nn_packed" << what;
          EXPECT_EQ(mismatches(got_tn, acc ? plus(c0, ref_tn) : ref_tn), 0u) << "tn" << what;
          EXPECT_EQ(mismatches(got_nt, acc ? plus(c0, ref_nt) : ref_nt), 0u) << "nt" << what;
        }
      }
    }
  }
}

TEST_P(Gemm, GramAcrossKPanelsMatchesReference) {
  util::Rng rng(50);
  const std::size_t m = 45;  // a partial panel on the diagonal
  for (const std::size_t k : kPanelKs) {
    const Matrix a = random_matrix(k, m, rng);
    const Matrix expected = matmul_tn_reference(a, a);
    for (const std::size_t threads : {1u, 4u}) {
      ComputeThreadsGuard guard(threads);
      Matrix c(m, m);
      gemm::gram(m, k, a.data(), a.cols(), c.data(), c.cols());
      EXPECT_EQ(mismatches(c, expected), 0u) << "gram k=" << k << " threads=" << threads;
    }
  }
}

TEST(Gemm, DispatchSelectsTheWidestTierTheCpuRuns) {
  // Stated independently of gemm.cpp's dispatch: a CPU with a tier's
  // features must get that tier (or a wider one), so a dispatch slip back to
  // a narrower tier fails here instead of only costing time.
  Tier expected = Tier::kBaseline;
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  const bool fma = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  const bool avx512 = fma && __builtin_cpu_supports("avx512f");
  EXPECT_EQ(gemm::detail::tier_supported(Tier::kAvx2), fma);
  EXPECT_EQ(gemm::detail::tier_supported(Tier::kAvx512), avx512);
  expected = avx512 ? Tier::kAvx512 : fma ? Tier::kAvx2 : Tier::kBaseline;
#endif
  EXPECT_TRUE(gemm::detail::tier_supported(Tier::kBaseline));
  EXPECT_EQ(gemm::detail::active_tier(), expected) << gemm::tile_name();
  const char* tiles[] = {"4x8 baseline", "4x8 avx2+fma", "4x16 avx512"};
  EXPECT_STREQ(gemm::tile_name(), tiles[static_cast<int>(expected)]);
  // The AVX2+FMA and AVX-512 tiers share one rounding contract and name.
  EXPECT_STREQ(gemm::isa_name(), expected == Tier::kBaseline ? "baseline" : "avx2+fma");
}

TEST(Gemm, TierGuardSelectsAndRestores) {
  const Tier dispatched = gemm::detail::active_tier();
  for (const Tier tier : {Tier::kBaseline, Tier::kAvx2, Tier::kAvx512}) {
    if (!gemm::detail::tier_supported(tier)) {
      EXPECT_THROW(gemm::detail::TierGuard{tier}, std::invalid_argument);
      continue;
    }
    {
      gemm::detail::TierGuard guard(tier);
      EXPECT_EQ(gemm::detail::active_tier(), tier);
      EXPECT_STREQ(gemm::isa_name(), tier == Tier::kBaseline ? "baseline" : "avx2+fma");
    }
    EXPECT_EQ(gemm::detail::active_tier(), dispatched);
  }
}

TEST(Gemm, FmaTiersAreBitIdentical) {
  // Each tier matches its own reference kernels (the EveryTier tests); this
  // pins the AVX-512 tier to the AVX2+FMA one directly, over every kernel
  // and a multi-panel reduction.
  for (const Tier tier : {Tier::kAvx2, Tier::kAvx512}) {
    if (!gemm::detail::tier_supported(tier)) {
      GTEST_SKIP() << "this CPU cannot run the " << test::gemm_tier_name(tier) << " GEMM tier";
    }
  }
  util::Rng rng(51);
  const std::size_t m = 70, n = 45, k = 600;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix at = random_matrix(k, m, rng);
  const Matrix b = random_matrix(k, n, rng);
  const Matrix bt = random_matrix(n, k, rng);
  const auto products = [&](Tier tier) {
    gemm::detail::TierGuard guard(tier);
    Matrix g(m, m);
    gemm::gram(m, k, at.data(), m, g.data(), m);
    return std::vector<Matrix>{matmul(a, b), matmul_tn(at, b), matmul_nt(a, bt), g};
  };
  const std::vector<Matrix> avx2 = products(Tier::kAvx2);
  const std::vector<Matrix> avx512 = products(Tier::kAvx512);
  for (std::size_t i = 0; i < avx2.size(); ++i) {
    EXPECT_EQ(mismatches(avx2[i], avx512[i]), 0u) << "product " << i;
  }
}

TEST(Parallel, ChunksCoverEveryIndexExactlyOnce) {
  ComputeThreadsGuard guard(4);
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_chunks(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n=" << n;
  }
}

TEST(Parallel, ForRowsPartitionIsAlignedAndComplete) {
  ComputeThreadsGuard guard(3);
  const std::size_t rows = 103;
  std::vector<std::atomic<int>> hits(rows);
  for (auto& h : hits) h.store(0);
  parallel_for_rows(rows, /*min_rows_per_chunk=*/4, /*align=*/4,
                    [&](std::size_t row0, std::size_t row1) {
                      EXPECT_EQ(row0 % 4, 0u);  // chunk starts stay tile-aligned
                      for (std::size_t r = row0; r < row1; ++r) hits[r].fetch_add(1);
                    });
  for (std::size_t r = 0; r < rows; ++r) EXPECT_EQ(hits[r].load(), 1) << "row " << r;
}

TEST(Parallel, GuardRestoresThreadCount) {
  const std::size_t before = compute_threads();
  {
    ComputeThreadsGuard guard(2);
    EXPECT_EQ(compute_threads(), 2u);
    {
      ComputeThreadsGuard inner(1);
      EXPECT_EQ(compute_threads(), 1u);
    }
    EXPECT_EQ(compute_threads(), 2u);
  }
  EXPECT_EQ(compute_threads(), before);
}

TEST(Parallel, NestedRegionsRunInlineOnEveryParticipant) {
  // A region opened from inside a chunk — on a pool worker or on the
  // submitting thread draining its own job — runs inline on that thread
  // instead of re-entering the pool.
  ComputeThreadsGuard guard(4);
  EXPECT_FALSE(detail::in_parallel_region());
  std::vector<std::atomic<int>> in_region(16);
  std::vector<std::atomic<int>> same_thread(16);
  parallel_chunks(16, [&](std::size_t i) {
    in_region[i].store(detail::in_parallel_region() ? 1 : 0);
    const std::thread::id outer = std::this_thread::get_id();
    int inline_chunks = 0;
    parallel_chunks(5, [&](std::size_t) {
      if (std::this_thread::get_id() == outer) ++inline_chunks;
    });
    same_thread[i].store(inline_chunks);
  });
  EXPECT_FALSE(detail::in_parallel_region());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(in_region[i].load(), 1) << "chunk " << i;
    EXPECT_EQ(same_thread[i].load(), 5) << "chunk " << i;
  }
}

TEST(Parallel, ScratchIsGrownForEveryParticipantBeforeAJob) {
  // One chunk of the first job asks for a large scratch buffer. In the
  // second job every participant — whichever chunks it claims — must find
  // its buffer already that large: asking for it returns the same storage
  // as asking for one double.
  ComputeThreadsGuard guard(4);
  constexpr std::size_t kLarge = std::size_t{1} << 17;
  for (std::size_t slot = 0; slot < detail::kScratchSlots; ++slot) {
    parallel_chunks(8, [&](std::size_t i) {
      detail::thread_scratch(slot, i == 5 ? kLarge : 1);
    });
    std::vector<std::atomic<int>> stable(32);
    parallel_chunks(32, [&](std::size_t i) {
      const double* small = detail::thread_scratch(slot, 1);
      const double* large = detail::thread_scratch(slot, kLarge);
      stable[i].store(small == large ? 1 : 0);
    });
    for (std::size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(stable[i].load(), 1) << "slot " << slot << " chunk " << i;
    }
  }
}

}  // namespace
}  // namespace dosc::nn
