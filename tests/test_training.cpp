// Centralized training + distributed inference (Sec. IV-C): the TrainingEnv
// reward plumbing, the trainer's multi-seed/best-agent selection, policy
// persistence, and that a briefly-trained agent beats a random one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/drl_env.hpp"
#include "core/policy_io.hpp"
#include "core/trainer.hpp"
#include "nn/parallel.hpp"
#include "test_helpers.hpp"

namespace dosc::core {
namespace {

using test::TinyScenarioOptions;
using test::tiny_scenario;

sim::Scenario easy_scenario(double end_time = 400.0) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = end_time;
  options.interarrival = 10.0;
  return tiny_scenario(test::line3(), test::one_component_catalog(), options);
}

TEST(RewardShaper, PaperValues) {
  RewardConfig config;
  RewardShaper shaper(config, /*diameter=*/10.0);
  EXPECT_DOUBLE_EQ(shaper.on_completed(), 10.0);
  EXPECT_DOUBLE_EQ(shaper.on_dropped(), -10.0);
  EXPECT_DOUBLE_EQ(shaper.on_component_processed(3), 1.0 / 3.0);  // +1/n_s
  EXPECT_DOUBLE_EQ(shaper.on_forwarded(2.5), -0.25);              // -d_l/D_G
  EXPECT_DOUBLE_EQ(shaper.on_parked(), -0.1);                     // -1/D_G
}

TEST(RewardShaper, AuxiliaryRewardsSmallerThanTerminal) {
  // The paper stresses shaping terms must stay well below +-10.
  RewardConfig config;
  RewardShaper shaper(config, 5.0);
  EXPECT_LT(shaper.on_component_processed(1), 1.5);
  EXPECT_GT(shaper.on_forwarded(5.0), -1.5);
  EXPECT_GT(shaper.on_parked(), -1.5);
}

TEST(TrainingEnv, CollectsTrajectoriesWithTerminalRewards) {
  const sim::Scenario scenario = easy_scenario(100.0);
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = observation_dim(scenario.network().max_degree());
  net_config.num_actions = scenario.num_actions();
  net_config.hidden = {8};
  net_config.seed = 1;
  const rl::ActorCritic net(net_config);
  rl::TrajectoryBuffer buffer(0.99);
  TrainingEnv env(net, buffer, RewardConfig{}, scenario.network().max_degree(),
                  util::Rng(7));
  sim::Simulator sim(scenario, 3);
  const sim::SimMetrics metrics = sim.run(env, &env);
  buffer.truncate_all();
  const rl::Batch batch = buffer.drain(net, net_config.obs_dim);
  EXPECT_EQ(batch.size(), metrics.decisions);
  // Every flow ended terminally (success or drop), so the episode reward
  // is a mix of +-10s and small shaping terms.
  EXPECT_NE(env.episode_reward(), 0.0);
  EXPECT_GT(batch.size(), 0u);
}

TEST(TrainingEnv, EpisodeRewardConsistentWithOutcomes) {
  // All-local-processing coordinator on an easy single-node path: every
  // flow succeeds, so total reward ~ flows * (10 + 1 + small shaping).
  const sim::Scenario scenario = easy_scenario(100.0);
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = observation_dim(scenario.network().max_degree());
  net_config.num_actions = scenario.num_actions();
  net_config.hidden = {8};
  net_config.seed = 2;
  const rl::ActorCritic net(net_config);
  rl::TrajectoryBuffer buffer(0.99);
  TrainingEnv env(net, buffer, RewardConfig{}, scenario.network().max_degree(),
                  util::Rng(9));
  sim::Simulator sim(scenario, 3);
  const sim::SimMetrics metrics = sim.run(env, &env);
  const double expected_terminal = 10.0 * static_cast<double>(metrics.succeeded) -
                                   10.0 * static_cast<double>(metrics.dropped);
  // Shaping adds at most ~2 per flow in magnitude on this small scenario.
  EXPECT_NEAR(env.episode_reward(), expected_terminal,
              2.5 * static_cast<double>(metrics.generated));
}

TEST(Trainer, TrainedBeatsRandomOnEasyScenario) {
  const sim::Scenario scenario = easy_scenario();
  TrainingConfig config;
  config.hidden = {16, 16};
  config.num_seeds = 1;
  config.parallel_envs = 2;
  config.iterations = 40;
  config.train_episode_time = 400.0;
  config.eval_episodes = 2;
  config.eval_episode_time = 400.0;
  const TrainedPolicy trained = train_distributed_policy(scenario, config);

  rl::ActorCriticConfig random_config = trained.net_config;
  random_config.seed = 999;
  const rl::ActorCritic random_net(random_config);
  const EvalResult random_eval =
      evaluate_policy(scenario, random_net, config.reward, 3, 400.0, 55);
  const rl::ActorCritic trained_net = trained.instantiate();
  const EvalResult trained_eval =
      evaluate_policy(scenario, trained_net, config.reward, 3, 400.0, 55);
  EXPECT_GT(trained_eval.success_ratio, random_eval.success_ratio + 0.2);
  EXPECT_GT(trained_eval.success_ratio, 0.5);
}

TEST(Trainer, ProgressCallbackFires) {
  const sim::Scenario scenario = easy_scenario(200.0);
  TrainingConfig config;
  config.hidden = {8};
  config.num_seeds = 2;
  config.parallel_envs = 1;
  config.iterations = 3;
  config.train_episode_time = 200.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 200.0;
  // Plain counters: the trainer serialises the callback, however many
  // seeds train at once.
  std::size_t calls = 0;
  std::size_t max_seed = 0;
  train_distributed_policy(scenario, config, [&](const TrainingProgress& p) {
    ++calls;
    max_seed = std::max(max_seed, p.seed_index);
    EXPECT_LT(p.iteration, 3u);
  });
  EXPECT_EQ(calls, 6u);  // 2 seeds x 3 iterations
  EXPECT_EQ(max_seed, 1u);
}

TEST(Trainer, BestSeedIsSelected) {
  const sim::Scenario scenario = easy_scenario(200.0);
  TrainingConfig config;
  config.hidden = {8};
  config.num_seeds = 3;
  config.parallel_envs = 1;
  config.iterations = 2;
  config.train_episode_time = 200.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 200.0;
  const TrainedPolicy policy = train_distributed_policy(scenario, config);
  ASSERT_EQ(policy.per_seed_success.size(), 3u);
  for (const double s : policy.per_seed_success) {
    EXPECT_LE(s, policy.eval_success_ratio + 1e-12);
  }
}

TEST(Trainer, BestSeedBreaksTiesByRewardThenSeedIndex) {
  // Selection alone, with training and evaluation scripted: the highest
  // success ratio wins, then the highest mean reward, then the earlier seed.
  // The scripted result is a function of the seed, so the selection must be
  // the same at one worker and at one worker per seed.
  const sim::Scenario scenario = easy_scenario(100.0);
  TrainingConfig config;
  config.hidden = {4};
  config.num_seeds = 4;
  config.seed_base = 5;
  const std::size_t obs_dim = observation_dim(scenario.network().max_degree());
  const std::size_t num_actions = scenario.num_actions();
  const std::vector<EvalResult> script = {{0.5, 9.0}, {0.7, 1.0}, {0.7, 3.0}, {0.7, 3.0}};
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = obs_dim;
  net_config.num_actions = num_actions;
  net_config.hidden = config.hidden;
  net_config.seed = config.seed_base + 2;
  const std::vector<double> expected = rl::ActorCritic(net_config).get_parameters();

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    const nn::ComputeThreadsGuard budget(workers);
    std::mutex mu;
    std::vector<std::uint64_t> eval_seed_bases;
    const TrainedPolicy policy = train_best_seed(
        scenario, config, obs_dim, num_actions, [](rl::ActorCritic&, std::size_t) {},
        [&](const rl::ActorCritic&, std::uint64_t seed_base) {
          const std::lock_guard<std::mutex> lock(mu);
          eval_seed_bases.push_back(seed_base);
          return script[seed_base - 9000];
        });

    EXPECT_EQ(policy.parameters, expected) << workers << " workers";
    EXPECT_EQ(policy.per_seed_success, (std::vector<double>{0.5, 0.7, 0.7, 0.7}))
        << workers << " workers";
    EXPECT_EQ(policy.eval_reward, 3.0) << workers << " workers";
    const std::vector<std::uint64_t> bases = {9000, 9001, 9002, 9003};
    if (workers == 1) {
      EXPECT_EQ(eval_seed_bases, bases);
    } else {
      std::sort(eval_seed_bases.begin(), eval_seed_bases.end());
      EXPECT_EQ(eval_seed_bases, bases) << workers << " workers";
    }
  }
}

TEST(Trainer, SeedFailureIsRethrownAfterJoin) {
  // A throwing seed stops the run: train_best_seed joins its workers and
  // rethrows the seed's own exception.
  const sim::Scenario scenario = easy_scenario(100.0);
  TrainingConfig config;
  config.hidden = {4};
  config.num_seeds = 3;
  const std::size_t obs_dim = observation_dim(scenario.network().max_degree());
  const nn::ComputeThreadsGuard budget(3);
  try {
    train_best_seed(
        scenario, config, obs_dim, scenario.num_actions(),
        [](rl::ActorCritic&, std::size_t seed_index) {
          if (seed_index == 1) throw std::runtime_error("seed 1 failed");
        },
        [](const rl::ActorCritic&, std::uint64_t) { return EvalResult{}; });
    ADD_FAILURE() << "train_best_seed returned";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seed 1 failed");
  }
}

TEST(Trainer, ValidatesConfig) {
  const sim::Scenario scenario = easy_scenario(100.0);
  TrainingConfig config;
  config.num_seeds = 0;
  EXPECT_THROW(train_distributed_policy(scenario, config), std::invalid_argument);
}

TEST(Trainer, PaperScaleConfigMatchesPaper) {
  const TrainingConfig config = TrainingConfig::paper_scale();
  EXPECT_EQ(config.hidden, (std::vector<std::size_t>{256, 256}));
  EXPECT_EQ(config.num_seeds, 10u);      // k = 10
  EXPECT_EQ(config.parallel_envs, 4u);   // l = 4
  EXPECT_DOUBLE_EQ(config.gamma, 0.99);
}

TEST(PolicyIo, RoundTripPreservesBehaviour) {
  const sim::Scenario scenario = easy_scenario(100.0);
  TrainingConfig config;
  config.hidden = {8};
  config.num_seeds = 1;
  config.parallel_envs = 1;
  config.iterations = 2;
  config.train_episode_time = 100.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 100.0;
  const TrainedPolicy policy = train_distributed_policy(scenario, config);

  const std::string path =
      (std::filesystem::temp_directory_path() / "dosc_policy_test.json").string();
  save_policy(policy, path);
  const TrainedPolicy loaded = load_policy(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.max_degree, policy.max_degree);
  EXPECT_EQ(loaded.net_config.hidden, policy.net_config.hidden);
  ASSERT_EQ(loaded.parameters.size(), policy.parameters.size());

  const rl::ActorCritic a = policy.instantiate();
  const rl::ActorCritic b = loaded.instantiate();
  const std::vector<double> obs(observation_dim(policy.max_degree), 0.25);
  const auto pa = a.action_probs(obs);
  const auto pb = b.action_probs(obs);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(DistributedCoordinator, RejectsMismatchedPolicy) {
  rl::ActorCriticConfig config;
  config.obs_dim = 8;  // degree-1 layout
  config.num_actions = 2;
  config.hidden = {4};
  config.seed = 1;
  const rl::ActorCritic net(config);
  EXPECT_NO_THROW(DistributedDrlCoordinator(net, 1));
  EXPECT_THROW(DistributedDrlCoordinator(net, 3), std::invalid_argument);
}

TEST(DistributedCoordinator, StochasticAndGreedyModesRun) {
  const sim::Scenario scenario = easy_scenario(200.0);
  rl::ActorCriticConfig config;
  config.obs_dim = observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.num_actions();
  config.hidden = {8};
  config.seed = 4;
  const rl::ActorCritic net(config);
  for (const bool stochastic : {false, true}) {
    DistributedDrlCoordinator coordinator(net, scenario.network().max_degree(), stochastic,
                                          util::Rng(5));
    sim::Simulator sim(scenario, 6);
    sim.enable_decision_timing(true);
    const sim::SimMetrics metrics = sim.run(coordinator);
    EXPECT_GT(metrics.generated, 0u);
    EXPECT_GT(metrics.decision_time.count(), 0u);
  }
}

}  // namespace
}  // namespace dosc::core
