// Decoupled async actor/learner training (rl::AsyncTrainer + the core
// trainer's async mode). The load-bearing guarantee is the lockstep anchor:
// 1 worker with max_staleness = 0 must produce bit-identical parameters to
// the synchronous trainer — same episodes, same merge, same updates, same
// floats. Everything beyond that (real multi-worker overlap) changes only
// throughput, never the estimator family, and is covered by smoke tests
// plus the thread-budget resolver's unit cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "rl/async_trainer.hpp"
#include "test_helpers.hpp"

namespace dosc {
namespace {

using test::TinyScenarioOptions;
using test::tiny_scenario;

sim::Scenario easy_scenario(double end_time = 300.0) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = end_time;
  options.interarrival = 10.0;
  return tiny_scenario(test::line3(), test::one_component_catalog(), options);
}

core::TrainingConfig small_config() {
  core::TrainingConfig config;
  config.hidden = {8, 8};
  config.num_seeds = 1;
  config.parallel_envs = 2;
  config.iterations = 5;
  config.train_episode_time = 300.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 300.0;
  return config;
}

TEST(ThreadBudget, PartitionsTheMachineWithoutOverlap) {
  // Auto learner budget: whatever the workers leave, at least 1.
  EXPECT_EQ(rl::resolve_thread_budget(8, 0, 16).learner_threads, 8u);
  EXPECT_EQ(rl::resolve_thread_budget(8, 0, 16).workers, 8u);
  EXPECT_EQ(rl::resolve_thread_budget(2, 0, 8).learner_threads, 6u);
  // Workers cover (or exceed) the machine: learner floors at 1.
  EXPECT_EQ(rl::resolve_thread_budget(4, 0, 4).learner_threads, 1u);
  EXPECT_EQ(rl::resolve_thread_budget(16, 0, 4).learner_threads, 1u);
  // Explicit learner budget is honoured when it fits...
  EXPECT_EQ(rl::resolve_thread_budget(2, 4, 8).learner_threads, 4u);
  // ...and clamped by the oversubscription guard when it does not.
  EXPECT_EQ(rl::resolve_thread_budget(2, 6, 4).learner_threads, 2u);
  EXPECT_EQ(rl::resolve_thread_budget(6, 6, 4).learner_threads, 1u);
  // Degenerate inputs keep a floor of one thread per side.
  EXPECT_EQ(rl::resolve_thread_budget(0, 0, 0).workers, 1u);
  EXPECT_EQ(rl::resolve_thread_budget(0, 0, 0).learner_threads, 1u);
  EXPECT_EQ(rl::resolve_thread_budget(1, 0, 1).learner_threads, 1u);
}

/// Simulator-free episode: 3 flows x 2 decisions each. Observations are a
/// deterministic function of (episode, flow, step); actions are sampled
/// from the driver's logit row with the episode's own rng; action 0 earns
/// +1 and anything else -0.5.
class SyntheticEpisode final : public rl::RolloutEpisode {
 public:
  static constexpr std::size_t kFlows = 3;
  static constexpr std::size_t kSteps = 2;

  SyntheticEpisode(std::size_t episode, rl::TrajectoryBuffer& buffer)
      : episode_(episode), buffer_(buffer), rng_(episode + 1) {}

  bool advance_to_decision() override { return decision_ < kFlows * kSteps; }
  void write_observation(std::span<double> out) override {
    obs_[0] = static_cast<double>(flow()) * 0.3;
    obs_[1] = static_cast<double>(decision_ % kSteps) * 0.5;
    obs_[2] = static_cast<double>(episode_ % 7) * 0.1;
    std::copy(obs_.begin(), obs_.end(), out.begin());
  }
  void apply_logits(std::span<const double> logits) override {
    double logp = 0.0;
    const int action = rl::ActorCritic::sample_action_from_logits(logits, rng_, &logp);
    const std::uint64_t key = episode_ * 64 + flow();
    buffer_.record_decision(key, obs_, action, logp);
    const double reward = (action == 0) ? 1.0 : -0.5;
    buffer_.record_reward(key, reward);
    total_ += reward;
    if (decision_ % kSteps == kSteps - 1) buffer_.finish(key);
    ++decision_;
  }
  double finish() override { return total_; }

 private:
  std::uint64_t flow() const noexcept { return decision_ / kSteps; }

  std::size_t episode_;
  rl::TrajectoryBuffer& buffer_;
  util::Rng rng_;
  std::array<double, 3> obs_{};
  std::size_t decision_ = 0;
  double total_ = 0.0;
};

rl::EpisodeFactory synthetic_factory() {
  return [](std::size_t, std::size_t episode, const rl::ActorCritic&,
            rl::TrajectoryBuffer& buffer) -> std::unique_ptr<rl::RolloutEpisode> {
    return std::make_unique<SyntheticEpisode>(episode, buffer);
  };
}

TEST(AsyncTrainer, ValidatesConfig) {
  rl::AsyncTrainerConfig config;
  config.episode_factory = synthetic_factory();
  config.obs_dim = 0;
  EXPECT_THROW(rl::AsyncTrainer{config}, std::invalid_argument);
  config.obs_dim = 3;
  EXPECT_NO_THROW(rl::AsyncTrainer{config});
  config.episode_factory = nullptr;
  try {
    rl::AsyncTrainer trainer(config);
    ADD_FAILURE() << "a missing episode_factory must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("episode_factory"), std::string::npos) << e.what();
  }
  config.episode_factory = synthetic_factory();
  config.episodes_per_update = 0;
  EXPECT_THROW(rl::AsyncTrainer{config}, std::invalid_argument);
}

TEST(AsyncTrainer, SyntheticRolloutRunsToCompletion) {
  // Environment-free harness: each episode records a deterministic little
  // trajectory set sampled from the current policy through the workers'
  // BatchedRollout. Pins the plumbing — every configured update runs, every
  // episode is consumed, progress reports arrive in order, staleness stays
  // within the pacing bound's steady-state envelope, and at one env per
  // worker every claim round holds exactly one episode.
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = 3;
  net_config.num_actions = 2;
  net_config.hidden = {4};
  net_config.seed = 1;
  rl::ActorCritic net(net_config);

  rl::AsyncTrainerConfig config;
  config.num_workers = 2;
  config.episodes_per_update = 2;
  config.updates = 6;
  config.queue_capacity = 4;
  config.max_staleness = 1;
  config.obs_dim = 3;
  config.gamma = 0.9;
  config.updater.optimizer = rl::OptimizerKind::kSgd;
  config.updater.learning_rate = 0.01;
  config.episode_factory = synthetic_factory();

  rl::AsyncTrainer trainer(config);
  std::vector<rl::AsyncProgress> reports;
  const rl::AsyncTrainStats stats =
      trainer.run(net, [&](const rl::AsyncProgress& p) { reports.push_back(p); });

  EXPECT_EQ(stats.updates, 6u);
  EXPECT_EQ(stats.episodes, 12u);
  EXPECT_EQ(stats.env_steps, 12u * 6u);  // 6 steps per episode, under the cap
  EXPECT_GE(stats.mean_staleness, 0.0);
  EXPECT_GE(stats.workers, 1u);
  EXPECT_GE(stats.learner_threads, 1u);
  EXPECT_EQ(stats.mean_envs_per_round, 1.0);
  ASSERT_EQ(reports.size(), 6u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].update, i);
    EXPECT_TRUE(std::isfinite(reports[i].stats.policy_loss));
    EXPECT_GE(reports[i].mean_staleness, 0.0);
  }
  for (const double p : net.get_parameters()) ASSERT_TRUE(std::isfinite(p));
}

TEST(AsyncTrainer, LockstepOneWorkerIsBitIdenticalToSyncTrainer) {
  // The acceptance anchor: async with num_workers = 1, max_staleness = 0
  // replays the synchronous trainer exactly — same episode seeds in the
  // same order, every update window fully fresh (behavior log-probs
  // stripped, Updater takes the on-policy path verbatim), the same merge
  // rng — so the trained parameters must match bit for bit.
  const sim::Scenario scenario = easy_scenario();
  const core::TrainingConfig sync_config = small_config();
  core::TrainingConfig async_config = small_config();
  async_config.async.enabled = true;
  async_config.async.num_workers = 1;
  async_config.async.max_staleness = 0;

  const core::TrainedPolicy sync_policy = core::train_distributed_policy(scenario, sync_config);
  const core::TrainedPolicy async_policy =
      core::train_distributed_policy(scenario, async_config);

  EXPECT_EQ(async_policy.max_degree, sync_policy.max_degree);
  EXPECT_DOUBLE_EQ(async_policy.eval_success_ratio, sync_policy.eval_success_ratio);
  EXPECT_DOUBLE_EQ(async_policy.eval_reward, sync_policy.eval_reward);
  ASSERT_EQ(async_policy.parameters.size(), sync_policy.parameters.size());
  for (std::size_t i = 0; i < sync_policy.parameters.size(); ++i) {
    ASSERT_EQ(async_policy.parameters[i], sync_policy.parameters[i])
        << "parameter " << i << " diverged";
  }
}

TEST(AsyncTrainer, MultiWorkerOverlappedTrainingCompletes) {
  // Real simulator episodes with two overlapped workers and staleness
  // allowed: not bit-reproducible by design, but it must complete all
  // updates, produce finite parameters, and evaluate without error.
  const sim::Scenario scenario = easy_scenario();
  core::TrainingConfig config = small_config();
  config.async.enabled = true;
  config.async.num_workers = 2;
  config.async.max_staleness = 2;
  config.async.queue_capacity = 4;

  std::atomic<std::size_t> progress_calls{0};
  const core::TrainedPolicy policy = core::train_distributed_policy(
      scenario, config, [&](const core::TrainingProgress&) { ++progress_calls; });
  EXPECT_EQ(progress_calls.load(), config.iterations);  // one seed
  ASSERT_FALSE(policy.parameters.empty());
  for (const double p : policy.parameters) ASSERT_TRUE(std::isfinite(p));
  EXPECT_GE(policy.eval_success_ratio, 0.0);
  EXPECT_LE(policy.eval_success_ratio, 1.0);
}

}  // namespace
}  // namespace dosc
