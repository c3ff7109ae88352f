// Allocation accounting for the per-decision inference fast path.
//
// The fast-path contract (PR "decision fast path"): once the first few
// decisions have warmed every workspace — packed gemv panels, observation
// tables bound at episode start, thread-local logits/probs scratch — a
// DistributedDrlCoordinator::decide performs NO heap allocation, in both
// greedy and stochastic modes. This binary replaces global operator
// new/delete with counting versions, wraps the coordinator so only the
// allocations *inside* decide() are measured (the simulator itself may
// allocate between decisions), and asserts the steady-state count is zero.
#include <gtest/gtest.h>

#include <atomic>

#include "core/drl_env.hpp"
#include "rl/actor_critic.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "counting_allocator.hpp"

namespace dosc {
namespace {

/// Forwards to an inner coordinator, counting allocations made inside each
/// decide() call. The first `warmup` decisions (pack, scratch growth,
/// thread_local buffers) are exempt; everything after is steady state.
class AllocCountingCoordinator final : public sim::Coordinator {
 public:
  AllocCountingCoordinator(sim::Coordinator& inner, std::size_t warmup)
      : inner_(inner), warmup_(warmup) {}

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const int action = inner_.decide(sim, flow, node);
    const std::uint64_t allocs = g_news.load(std::memory_order_relaxed) - before;
    if (++calls_ > warmup_) steady_allocs_ += allocs;
    return action;
  }
  void on_episode_start(const sim::Simulator& sim) override { inner_.on_episode_start(sim); }
  double periodic_interval() const override { return inner_.periodic_interval(); }
  void on_periodic(const sim::Simulator& sim, double time) override {
    inner_.on_periodic(sim, time);
  }

  std::uint64_t steady_allocs() const noexcept { return steady_allocs_; }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  sim::Coordinator& inner_;
  std::size_t warmup_;
  std::uint64_t calls_ = 0;
  std::uint64_t steady_allocs_ = 0;
};

rl::ActorCritic make_policy(const sim::Scenario& scenario) {
  rl::ActorCriticConfig config;
  config.obs_dim = core::observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.network().max_degree() + 1;
  config.hidden = {64, 64};
  config.seed = 5;
  return rl::ActorCritic(config);
}

std::uint64_t steady_decide_allocs(bool stochastic, std::uint64_t* calls_out = nullptr) {
  const sim::Scenario scenario =
      sim::make_base_scenario(2).with_end_time(1500.0);
  const rl::ActorCritic policy = make_policy(scenario);
  core::DistributedDrlCoordinator inner(policy, scenario.network().max_degree(), stochastic,
                                        util::Rng(3));
  AllocCountingCoordinator counter(inner, /*warmup=*/5);
  sim::Simulator sim(scenario, /*seed=*/17);
  sim.run(counter);
  if (calls_out != nullptr) *calls_out = counter.calls();
  return counter.steady_allocs();
}

TEST(DecideAlloc, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  volatile std::size_t n = 4096;
  double* p = new double[n];
  delete[] p;
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before);
}

TEST(DecideAlloc, GreedyDecideSteadyStateIsAllocationFree) {
  std::uint64_t calls = 0;
  EXPECT_EQ(steady_decide_allocs(/*stochastic=*/false, &calls), 0u);
  EXPECT_GT(calls, 50u) << "scenario too short to exercise steady state";
}

TEST(DecideAlloc, StochasticDecideSteadyStateIsAllocationFree) {
  // The sampled path (softmax + inline CDF walk) must be just as clean as
  // greedy argmax.
  std::uint64_t calls = 0;
  EXPECT_EQ(steady_decide_allocs(/*stochastic=*/true, &calls), 0u);
  EXPECT_GT(calls, 50u);
}

}  // namespace
}  // namespace dosc
