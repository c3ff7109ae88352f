// Allocation accounting for the training hot path.
//
// The zero-allocation contract: after one warm-up pass has sized every
// workspace (layer caches, gradient buffers, per-thread GEMM panels and
// k-panel scratch, K-FAC's per-layer solve workspaces), repeated
// Mlp::forward/backward and whole ACKTR updates at a steady batch shape
// perform NO heap allocation. This binary replaces the global operator
// new/delete with counting versions and asserts the count stays flat
// across the steady-state region.
#include <gtest/gtest.h>

#include <atomic>

#include "nn/mlp.hpp"
#include "rl/actor_critic.hpp"
#include "rl/updater.hpp"
#include "util/rng.hpp"
#include "counting_allocator.hpp"

namespace dosc::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

/// Allocations observed during `iterations` forward/backward passes at
/// steady state. Warm-up runs until a full pass allocates nothing. The
/// measured region gets no retry: one allocation in it fails the test.
std::uint64_t steady_state_allocs(std::size_t iterations) {
  util::Rng rng(123);
  Mlp net({20, 256, 256, 5}, Activation::kTanh, Activation::kLinear, 9);
  const Matrix x = random_matrix(64, 20, rng);
  const Matrix g = random_matrix(64, 5, rng);
  net.zero_grad();
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    net.forward(x);
    net.backward(g);
    if (g_news.load(std::memory_order_relaxed) == before) break;
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < iterations; ++i) {
    net.forward(x);
    net.backward(g);
  }
  return g_news.load(std::memory_order_relaxed) - before;
}

/// Allocations observed during `iterations` ACKTR updates (critic and actor
/// forward/backward, K-FAC factor refresh, natural-gradient step) at steady
/// state. The batch of 600 rows reduces the backward's weight gradients and
/// the K-FAC factors over three k-panels, so the GEMMs' accumulate scratch
/// is warmed and then reused too. Same warm-up rule as above, and no
/// retry.
std::uint64_t steady_state_update_allocs(std::size_t iterations) {
  util::Rng rng(321);
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = 20;
  net_config.num_actions = 5;
  net_config.hidden = {64, 64};
  net_config.seed = 3;
  rl::ActorCritic net(net_config);
  rl::Batch batch;
  const std::size_t rows = 600;
  batch.obs = random_matrix(rows, net_config.obs_dim, rng);
  batch.actions.resize(rows);
  batch.returns.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    batch.actions[i] = static_cast<int>(i % net_config.num_actions);
    batch.returns[i] = rng.normal(0.0, 1.0);
  }
  rl::Updater updater(rl::UpdaterConfig{});  // ACKTR
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    updater.update(net, batch);
    if (g_news.load(std::memory_order_relaxed) == before) break;
  }
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < iterations; ++i) updater.update(net, batch);
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(NnAlloc, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  // Volatile-sized so the allocation cannot be elided as dead.
  volatile std::size_t n = 4096;
  double* p = new double[n];
  delete[] p;
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before);
}

TEST(NnAlloc, ForwardBackwardSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(/*iterations=*/10), 0u);
}

TEST(NnAlloc, AcktrUpdateSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_update_allocs(/*iterations=*/5), 0u);
}

TEST(NnAlloc, ReshapeAllocatesOnlyWhenGrowing) {
  util::Rng rng(7);
  const Matrix big_a = random_matrix(48, 24, rng);
  const Matrix big_b = random_matrix(24, 32, rng);
  const Matrix small_a = random_matrix(8, 24, rng);
  Matrix c;
  matmul_into(c, big_a, big_b);  // sizes the buffer
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  matmul_into(c, small_a, big_b);  // shrinking reuses capacity
  matmul_into(c, big_a, big_b);    // regrowing within capacity too
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace dosc::nn
