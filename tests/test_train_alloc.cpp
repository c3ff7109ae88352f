// Allocation accounting for the training hot path.
//
// The rollout contract: once a trajectory buffer's pools have warmed —
// the pooled TrajectoryBuffer's slot/step/observation storage, the
// open-addressing flow index, the drain target batch — recording a decision
// or crediting a reward performs NO heap allocation, and neither does a
// steady-shape drain. This binary replaces global operator new/delete with
// counting versions and pins the contract three times: synthetically on the
// bare TrajectoryBuffer (episode 2 of an identical recording pattern must be
// allocation-free end to end), through a real simulator episode driven by
// TrainingEnv (an exact replay of a warmed episode must be allocation-free
// inside every decide() and reward event), and through rl::BatchedRollout,
// the trainer's only episode driver (on a replayed episode set, the
// driver's rounds — gather, fused forward, logit rows — and the agents'
// build_observation / decide_from_logits must not allocate).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/batched_episode.hpp"
#include "core/drl_env.hpp"
#include "rl/batched_rollout.hpp"
#include "rl/rollout.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dosc {
namespace {

rl::ActorCritic make_policy(const sim::Scenario& scenario) {
  rl::ActorCriticConfig config;
  config.obs_dim = core::observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.network().max_degree() + 1;
  config.hidden = {32, 32};
  config.seed = 5;
  return rl::ActorCritic(config);
}

TEST(TrainAlloc, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  volatile std::size_t n = 4096;
  double* p = new double[n];
  delete[] p;
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before);
}

TEST(TrainAlloc, PooledBufferEpisodeLoopIsAllocationFreeOnceWarm) {
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = 6;
  net_config.num_actions = 3;
  net_config.hidden = {8};
  net_config.seed = 2;
  const rl::ActorCritic net(net_config);
  rl::TrajectoryBuffer buffer(0.95);
  rl::Batch batch;
  std::vector<double> obs(6, 0.25);

  // One "episode": 32 interleaved flows, 4 decisions each with rewards,
  // half finished terminally and half truncated, then a drain.
  const auto run_episode = [&] {
    for (int step = 0; step < 4; ++step) {
      for (std::uint64_t flow = 0; flow < 32; ++flow) {
        obs[0] = static_cast<double>(step) * 0.1;
        buffer.record_decision(flow, obs, step % 3, -0.5);
        buffer.record_reward(flow, 0.25);
      }
    }
    for (std::uint64_t flow = 0; flow < 32; flow += 2) buffer.finish(flow);
    buffer.truncate_all();
    buffer.drain_into(batch, net, 6, /*with_behavior_logp=*/true);
  };

  run_episode();  // warm every pool, table, scratch, and the batch target
  ASSERT_EQ(batch.size(), 128u);

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  run_episode();
  const std::uint64_t steady = g_news.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(steady, 0u);
  EXPECT_EQ(batch.size(), 128u);
}

/// Forwards decide() to a TrainingEnv, counting allocations made inside.
class AllocCountingCoordinator final : public sim::Coordinator {
 public:
  explicit AllocCountingCoordinator(core::TrainingEnv& inner) : inner_(inner) {}

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    const int action = inner_.decide(sim, flow, node);
    allocs_ += g_news.load(std::memory_order_relaxed) - before;
    ++calls_;
    return action;
  }
  void on_episode_start(const sim::Simulator& sim) override { inner_.on_episode_start(sim); }

  std::uint64_t allocs() const noexcept { return allocs_; }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  core::TrainingEnv& inner_;
  std::uint64_t calls_ = 0;
  std::uint64_t allocs_ = 0;
};

/// Forwards flow events to a TrainingEnv, counting allocations made inside
/// the reward-crediting path.
class AllocCountingObserver final : public sim::FlowObserver {
 public:
  explicit AllocCountingObserver(core::TrainingEnv& inner) : inner_(inner) {}

  void on_completed(const sim::Flow& flow, double t) override {
    count([&] { inner_.on_completed(flow, t); });
  }
  void on_dropped(const sim::Flow& flow, sim::DropReason r, double t) override {
    count([&] { inner_.on_dropped(flow, r, t); });
  }
  void on_component_processed(const sim::Flow& flow, net::NodeId n, double t) override {
    count([&] { inner_.on_component_processed(flow, n, t); });
  }
  void on_forwarded(const sim::Flow& flow, net::NodeId n, net::LinkId l, double t) override {
    count([&] { inner_.on_forwarded(flow, n, l, t); });
  }
  void on_parked(const sim::Flow& flow, net::NodeId n, double t) override {
    count([&] { inner_.on_parked(flow, n, t); });
  }

  std::uint64_t allocs() const noexcept { return allocs_; }

 private:
  template <typename Fn>
  void count(Fn&& fn) {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    fn();
    allocs_ += g_news.load(std::memory_order_relaxed) - before;
  }

  core::TrainingEnv& inner_;
  std::uint64_t allocs_ = 0;
};

TEST(TrainAlloc, WorkerEpisodeReplayIsAllocationFreeInsideDecideAndEvents) {
  // Episode 2 is an exact replay of episode 1 (same policy parameters, same
  // env rng seed, same simulator seed). reserve() pre-sizes every slot to
  // the same shape — necessary because drain releases slots in completion
  // order while acquisition pops the free list LIFO, so the replay pairs
  // each flow with a *different* recycled slot; organic warming only sizes
  // each slot for the flows it happened to host. With uniform pools the
  // per-step path must not allocate at all. (The episode has ~131 flows,
  // <= 27 decisions each; the bounds below leave ~2x headroom.)
  const sim::Scenario scenario = sim::make_base_scenario(2).with_end_time(600.0);
  const std::size_t max_degree = scenario.network().max_degree();
  const rl::ActorCritic policy = make_policy(scenario);
  rl::TrajectoryBuffer buffer(0.99);
  buffer.reserve(/*max_flows=*/256, /*max_steps_per_flow=*/32,
                 core::observation_dim(max_degree));
  rl::Batch batch;

  const auto run_episode = [&](std::uint64_t* decide_allocs, std::uint64_t* event_allocs,
                               std::uint64_t* calls) {
    core::TrainingEnv env(policy, buffer, core::RewardConfig{}, max_degree, util::Rng(7),
                          {}, /*record_behavior_logp=*/true);
    AllocCountingCoordinator coordinator(env);
    AllocCountingObserver observer(env);
    sim::Simulator sim(scenario, /*seed=*/17);
    sim.run(coordinator, &observer);
    buffer.truncate_all();
    buffer.drain_into(batch, policy, policy.config().obs_dim, /*with_behavior_logp=*/true);
    if (decide_allocs != nullptr) *decide_allocs = coordinator.allocs();
    if (event_allocs != nullptr) *event_allocs = observer.allocs();
    if (calls != nullptr) *calls = coordinator.calls();
  };

  run_episode(nullptr, nullptr, nullptr);  // warm

  std::uint64_t decide_allocs = 0;
  std::uint64_t event_allocs = 0;
  std::uint64_t calls = 0;
  run_episode(&decide_allocs, &event_allocs, &calls);
  EXPECT_EQ(decide_allocs, 0u);
  EXPECT_EQ(event_allocs, 0u);
  EXPECT_GT(calls, 50u) << "scenario too short to exercise steady state";
  EXPECT_GT(batch.size(), 0u);
}

/// fn(), adding the allocations made inside it to `allocs`.
template <typename Fn>
decltype(auto) counted(std::uint64_t& allocs, Fn&& fn) {
  struct Tally {
    std::uint64_t& allocs;
    std::uint64_t before;
    ~Tally() { allocs += g_news.load(std::memory_order_relaxed) - before; }
  } tally{allocs, g_news.load(std::memory_order_relaxed)};
  return fn();
}

/// Forwards the agent half of a decision, counting allocations inside
/// build_observation and decide_from_logits.
class AllocCountingAgent final : public core::BatchedDecisionAgent {
 public:
  explicit AllocCountingAgent(core::BatchedDecisionAgent& inner) : inner_(inner) {}

  const std::vector<double>& build_observation(const sim::Simulator& sim,
                                               const sim::Flow& flow,
                                               net::NodeId node) override {
    return counted(allocs_, [&]() -> const std::vector<double>& {
      return inner_.build_observation(sim, flow, node);
    });
  }
  int decide_from_logits(const sim::Flow& flow, std::span<const double> logits) override {
    return counted(allocs_, [&] { return inner_.decide_from_logits(flow, logits); });
  }

  std::uint64_t allocs() const noexcept { return allocs_; }

 private:
  core::BatchedDecisionAgent& inner_;
  std::uint64_t allocs_ = 0;
};

/// Forwards every env call, counting allocations inside them — the
/// simulator's own stepping included — so that the driver's share of a run
/// is the run's total minus this.
class AllocCountingEnv final : public rl::BatchedEnv {
 public:
  explicit AllocCountingEnv(rl::BatchedEnv& inner) : inner_(inner) {}

  bool advance_to_decision() override {
    return counted(allocs_, [&] { return inner_.advance_to_decision(); });
  }
  void write_observation(std::span<double> out) override {
    counted(allocs_, [&] { inner_.write_observation(out); });
  }
  void apply_logits(std::span<const double> logits) override {
    counted(allocs_, [&] { inner_.apply_logits(logits); });
  }

  std::uint64_t allocs() const noexcept { return allocs_; }

 private:
  rl::BatchedEnv& inner_;
  std::uint64_t allocs_ = 0;
};

TEST(TrainAlloc, BatchedRolloutRoundsAreAllocationFreeOnReplay) {
  // A set of `width` episodes is run twice through one driver: the first
  // pass warms the driver's gather/logit/forward buffers, the agents'
  // observation builders and (stochastic) the reserved trajectory buffers;
  // the second is an exact replay (same policy, seeds and rng streams) and
  // must allocate nothing in the driver or the agents. Width 1 is the
  // per-row GEMV path; width 4 adds the fused GEMM tile. Allocations inside
  // the simulator (per-episode pools, event queue) are excluded, as above.
  const sim::Scenario scenario = sim::make_base_scenario(2).with_end_time(600.0);
  const std::size_t max_degree = scenario.network().max_degree();
  const rl::ActorCritic policy = make_policy(scenario);
  const std::size_t obs_dim = policy.config().obs_dim;
  for (const bool stochastic : {false, true}) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      const std::string what =
          std::string(stochastic ? "stochastic" : "greedy") + " width " + std::to_string(width);
      rl::BatchedRollout driver(policy.actor(), obs_dim);
      std::vector<rl::TrajectoryBuffer> buffers;
      for (std::size_t e = 0; e < width; ++e) {
        buffers.emplace_back(0.99);
        buffers.back().reserve(/*max_flows=*/256, /*max_steps_per_flow=*/32, obs_dim);
      }
      rl::Batch batch;
      std::uint64_t driver_allocs = 0;
      std::uint64_t agent_allocs = 0;
      std::uint64_t decisions = 0;
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::unique_ptr<core::TrainingEnv>> train_envs;
        std::vector<std::unique_ptr<core::DistributedDrlCoordinator>> greedy;
        std::vector<std::unique_ptr<AllocCountingAgent>> agents;
        std::vector<std::unique_ptr<core::YieldingEpisode>> episodes;
        std::vector<std::unique_ptr<AllocCountingEnv>> envs;
        std::vector<rl::BatchedEnv*> ptrs;
        for (std::size_t e = 0; e < width; ++e) {
          sim::Coordinator* coordinator = nullptr;
          core::BatchedDecisionAgent* agent = nullptr;
          sim::FlowObserver* observer = nullptr;
          if (stochastic) {
            train_envs.push_back(std::make_unique<core::TrainingEnv>(
                policy, buffers[e], core::RewardConfig{}, max_degree, util::Rng(7 + e),
                core::ObservationMask{}, /*record_behavior_logp=*/true));
            coordinator = train_envs.back().get();
            agent = train_envs.back().get();
            observer = train_envs.back().get();
          } else {
            greedy.push_back(
                std::make_unique<core::DistributedDrlCoordinator>(policy, max_degree));
            coordinator = greedy.back().get();
            agent = greedy.back().get();
          }
          agents.push_back(std::make_unique<AllocCountingAgent>(*agent));
          episodes.push_back(std::make_unique<core::YieldingEpisode>(
              scenario, 17 + e, *coordinator, *agents.back(), observer));
          envs.push_back(std::make_unique<AllocCountingEnv>(*episodes.back()));
          ptrs.push_back(envs.back().get());
        }
        const std::uint64_t before = g_news.load(std::memory_order_relaxed);
        const rl::BatchedRolloutStats stats = driver.run(ptrs);
        const std::uint64_t total = g_news.load(std::memory_order_relaxed) - before;
        std::uint64_t env_allocs = 0;
        for (const auto& env : envs) env_allocs += env->allocs();
        driver_allocs = total - env_allocs;
        agent_allocs = 0;
        for (const auto& a : agents) agent_allocs += a->allocs();
        decisions = stats.decisions;
        for (auto& episode : episodes) episode->finish();
        for (rl::TrajectoryBuffer& buffer : buffers) {
          buffer.truncate_all();
          buffer.drain_into(batch, policy, obs_dim, /*with_behavior_logp=*/true);
        }
      }
      EXPECT_EQ(driver_allocs, 0u) << what;
      EXPECT_EQ(agent_allocs, 0u) << what;
      EXPECT_GT(decisions, 50u * width) << what << ": too short to exercise steady state";
    }
  }
}

}  // namespace
}  // namespace dosc
