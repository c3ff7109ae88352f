#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "rl/rollout.hpp"
#include "util/rng.hpp"

namespace dosc::rl {
namespace {

ActorCritic make_net() {
  ActorCriticConfig config;
  config.obs_dim = 3;
  config.num_actions = 2;
  config.hidden = {4};
  config.seed = 1;
  return ActorCritic(config);
}

std::vector<double> obs(double v) { return {v, v, v}; }

TEST(TrajectoryBuffer, TerminalDiscountedReturns) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.5);
  buffer.record_decision(1, obs(0.1), 0);
  buffer.record_reward(1, 1.0);
  buffer.record_decision(1, obs(0.2), 1);
  buffer.record_reward(1, 2.0);
  buffer.record_decision(1, obs(0.3), 0);
  buffer.record_reward(1, 4.0);
  buffer.finish(1);
  EXPECT_EQ(buffer.completed_steps(), 3u);

  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 3u);
  // Returns with gamma 0.5: R2 = 4; R1 = 2 + 0.5*4 = 4; R0 = 1 + 0.5*4 = 3.
  EXPECT_DOUBLE_EQ(batch.returns[2], 4.0);
  EXPECT_DOUBLE_EQ(batch.returns[1], 4.0);
  EXPECT_DOUBLE_EQ(batch.returns[0], 3.0);
  EXPECT_EQ(batch.actions[1], 1);
  EXPECT_DOUBLE_EQ(batch.obs(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(batch.obs(2, 2), 0.3);
  // Drained: next drain is empty.
  EXPECT_EQ(buffer.drain(net, 3).size(), 0u);
}

TEST(TrajectoryBuffer, RewardCreditsMostRecentDecision) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(1.0);
  buffer.record_decision(7, obs(0.0), 0);
  buffer.record_reward(7, 1.0);
  buffer.record_reward(7, 2.0);  // both accrue to step 0
  buffer.record_decision(7, obs(1.0), 1);
  buffer.record_reward(7, 5.0);
  buffer.finish(7);
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 2u);
  // gamma=1: R0 = (1+2) + 5 = 8, R1 = 5.
  EXPECT_DOUBLE_EQ(batch.returns[0], 8.0);
  EXPECT_DOUBLE_EQ(batch.returns[1], 5.0);
}

TEST(TrajectoryBuffer, RewardBeforeAnyDecisionIgnored) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.9);
  buffer.record_reward(3, 100.0);  // no decision yet: dropped
  buffer.record_decision(3, obs(0.5), 0);
  buffer.record_reward(3, 1.0);
  buffer.finish(3);
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_DOUBLE_EQ(batch.returns[0], 1.0);
}

TEST(TrajectoryBuffer, FinishUnknownKeyIsNoOp) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.9);
  buffer.finish(99);
  EXPECT_EQ(buffer.drain(net, 3).size(), 0u);
}

TEST(TrajectoryBuffer, InterleavedFlowsStaySeparate) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(1.0);
  buffer.record_decision(1, obs(0.1), 0);
  buffer.record_decision(2, obs(0.9), 1);
  buffer.record_reward(1, 10.0);
  buffer.record_reward(2, -10.0);
  buffer.finish(1);
  buffer.finish(2);
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 2u);
  // Flow 1's trajectory was finished first.
  EXPECT_DOUBLE_EQ(batch.returns[0], 10.0);
  EXPECT_DOUBLE_EQ(batch.returns[1], -10.0);
}

TEST(TrajectoryBuffer, TruncationBootstrapsWithCritic) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.5);
  const std::vector<double> last = obs(0.7);
  buffer.record_decision(4, obs(0.2), 0);
  buffer.record_reward(4, 1.0);
  buffer.record_decision(4, last, 1);
  buffer.record_reward(4, 2.0);
  EXPECT_EQ(buffer.open_trajectories(), 1u);
  buffer.truncate_all();
  EXPECT_EQ(buffer.open_trajectories(), 0u);

  const double v = net.value(last);
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_NEAR(batch.returns[1], 2.0 + 0.5 * v, 1e-12);
  EXPECT_NEAR(batch.returns[0], 1.0 + 0.5 * batch.returns[1], 1e-12);
}

TEST(TrajectoryBuffer, DrainChecksObsDim) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.9);
  const std::vector<double> short_obs{0.1, 0.2};
  buffer.record_decision(1, short_obs, 0);  // wrong size (2 != 3)
  buffer.finish(1);
  EXPECT_THROW(buffer.drain(net, 3), std::invalid_argument);
}

TEST(TrajectoryBuffer, DrainKeepsOpenTrajectories) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.9);
  buffer.record_decision(1, obs(0.1), 0);
  buffer.record_reward(1, 2.0);
  buffer.finish(1);
  buffer.record_decision(2, obs(0.5), 1);  // still open
  buffer.record_reward(2, 7.0);

  // Draining hands out only the finished trajectory; flow 2 stays open and
  // keeps accruing until its own terminal event.
  const Batch first = buffer.drain(net, 3);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_DOUBLE_EQ(first.returns[0], 2.0);
  EXPECT_EQ(buffer.open_trajectories(), 1u);

  buffer.record_reward(2, 1.0);
  buffer.finish(2);
  const Batch second = buffer.drain(net, 3);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_DOUBLE_EQ(second.returns[0], 8.0);
  EXPECT_EQ(buffer.open_trajectories(), 0u);
}

TEST(TrajectoryBuffer, HandComputedFourStepReturns) {
  // Full backward recursion R_t = r_t + gamma * R_{t+1} on a 4-step
  // trajectory with gamma = 0.9, checked against hand-computed values.
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.9);
  const double rewards[4] = {1.0, -2.0, 0.5, 10.0};
  for (int t = 0; t < 4; ++t) {
    buffer.record_decision(11, obs(0.1 * t), t % 2);
    buffer.record_reward(11, rewards[t]);
  }
  buffer.finish(11);
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 4u);
  const double r3 = 10.0;
  const double r2 = 0.5 + 0.9 * r3;   // 9.5
  const double r1 = -2.0 + 0.9 * r2;  // 6.55
  const double r0 = 1.0 + 0.9 * r1;   // 6.895
  EXPECT_DOUBLE_EQ(batch.returns[3], r3);
  EXPECT_DOUBLE_EQ(batch.returns[2], r2);
  EXPECT_DOUBLE_EQ(batch.returns[1], r1);
  EXPECT_DOUBLE_EQ(batch.returns[0], r0);
}

TEST(TrajectoryBuffer, EmptyTrajectoriesAreDiscarded) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(0.9);
  buffer.record_reward(1, 5.0);  // opens nothing
  buffer.truncate_all();
  EXPECT_EQ(buffer.drain(net, 3).size(), 0u);
}

TEST(TrajectoryBuffer, TruncateClosesInFirstDecisionOrder) {
  // The pooled buffer's determinism contract: truncation emits still-open
  // trajectories in the order each flow made its first decision —
  // regardless of key values or interleaving — not hash-table order.
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(1.0);
  const std::uint64_t keys[4] = {901, 3, 77, 12};
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 4; ++k) {
      buffer.record_decision(keys[k], obs(0.1), 0);
      buffer.record_reward(keys[k], static_cast<double>(k + 1));
    }
  }
  buffer.truncate_all();
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 8u);
  // Each flow contributed 2 steps; flows appear in first-decision order, so
  // the last step of flow k (reward k+1, gamma 1, truncated bootstrap) sits
  // at row 2k + 1 with return (k+1) + V(last obs).
  for (int k = 0; k < 4; ++k) {
    const double bootstrap = net.value(obs(0.1));
    EXPECT_DOUBLE_EQ(batch.returns[2 * k + 1], static_cast<double>(k + 1) + bootstrap);
  }
}

TEST(TrajectoryBuffer, PoolRecyclesAcrossManyEpisodesWithoutLeakingState) {
  // Heavy churn across key reuse, growth, and repeated drains: the pooled
  // storage and open-addressing table must keep producing exact returns.
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(1.0);
  Batch batch;
  for (int episode = 0; episode < 20; ++episode) {
    for (std::uint64_t flow = 0; flow < 50; ++flow) {
      const std::uint64_t key = flow * 7 + static_cast<std::uint64_t>(episode % 3);
      buffer.record_decision(key, obs(0.1), 0);
      buffer.record_reward(key, 1.0);
      if (flow % 2 == 0) buffer.finish(key);
    }
    buffer.truncate_all();
    buffer.drain_into(batch, net, 3);
    ASSERT_EQ(batch.size(), 50u) << "episode " << episode;
    EXPECT_EQ(buffer.open_trajectories(), 0u);
  }
}

TEST(TrajectoryBuffer, ReserveMidEpisodePreservesOpenTrajectories) {
  // reserve() pre-warms the pools (test_train_alloc pins the allocation
  // contract); here we pin that calling it with trajectories already open
  // changes no recorded data — growth past the reserved bounds included.
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(1.0);
  buffer.record_decision(5, obs(0.1), 1);
  buffer.record_reward(5, 2.0);
  buffer.reserve(/*max_flows=*/64, /*max_steps_per_flow=*/4, /*obs_dim=*/3);
  buffer.record_decision(5, obs(0.2), 0);
  buffer.record_reward(5, 3.0);
  // 128 flows exceeds the reserved 64 and forces pool + table growth with
  // the reserved slots in play.
  for (std::uint64_t flow = 100; flow < 228; ++flow) {
    buffer.record_decision(flow, obs(0.3), 0);
    buffer.record_reward(flow, 1.0);
    buffer.finish(flow);
  }
  buffer.finish(5);
  const Batch batch = buffer.drain(net, 3);
  ASSERT_EQ(batch.size(), 130u);
  // Flow 5 finished last: its two steps are the final rows, with the
  // pre-reserve decision intact (gamma 1: returns 5 then 3).
  EXPECT_EQ(batch.actions[128], 1);
  EXPECT_DOUBLE_EQ(batch.returns[128], 5.0);
  EXPECT_DOUBLE_EQ(batch.obs(128, 0), 0.1);
  EXPECT_EQ(batch.actions[129], 0);
  EXPECT_DOUBLE_EQ(batch.returns[129], 3.0);
  EXPECT_DOUBLE_EQ(batch.obs(129, 0), 0.2);
}

TEST(MergeBatches, ConcatenatesUnderCap) {
  const ActorCritic net = make_net();
  auto make_batch = [&](std::uint64_t key, double reward, int steps) {
    TrajectoryBuffer buffer(1.0);
    for (int s = 0; s < steps; ++s) {
      buffer.record_decision(key, obs(0.1 * (s + 1)), s % 2);
      buffer.record_reward(key, reward);
    }
    buffer.finish(key);
    Batch batch;
    buffer.drain_into(batch, net, 3);
    return batch;
  };
  const std::vector<Batch> batches = {make_batch(1, 1.0, 2), make_batch(2, 2.0, 3)};
  Batch merged;
  util::Rng rng(9);
  merge_batches_into(merged, batches, 3, /*max_steps=*/100, rng);
  ASSERT_EQ(merged.size(), 5u);
  // Under the cap the merge is a plain concatenation in batch order
  // (gamma 1: batch 1's returns 2, 1; batch 2's 6, 4, 2).
  const std::vector<double> returns{2.0, 1.0, 6.0, 4.0, 2.0};
  for (std::size_t i = 0; i < returns.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged.returns[i], returns[i]) << "row " << i;
  }
  EXPECT_DOUBLE_EQ(merged.obs(4, 0), 0.3);
}

TEST(MergeBatches, ReservoirSubsampleCapsSizeDeterministically) {
  const ActorCritic net = make_net();
  TrajectoryBuffer buffer(1.0);
  for (std::uint64_t flow = 0; flow < 10; ++flow) {
    for (int s = 0; s < 4; ++s) {
      buffer.record_decision(flow, obs(0.01 * static_cast<double>(flow)), 0);
      buffer.record_reward(flow, 1.0);
    }
    buffer.finish(flow);
  }
  Batch big;
  buffer.drain_into(big, net, 3);
  ASSERT_EQ(big.size(), 40u);

  const std::vector<Batch> batches = {big};
  Batch a;
  Batch b;
  util::Rng rng_a(123);
  util::Rng rng_b(123);
  merge_batches_into(a, batches, 3, /*max_steps=*/16, rng_a);
  merge_batches_into(b, batches, 3, /*max_steps=*/16, rng_b);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), 16u);
  // Same seed, same inputs: the subsample is a pure function of both.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.actions[i], b.actions[i]);
    EXPECT_DOUBLE_EQ(a.returns[i], b.returns[i]);
    EXPECT_DOUBLE_EQ(a.obs(i, 0), b.obs(i, 0));
  }
}

}  // namespace
}  // namespace dosc::rl
