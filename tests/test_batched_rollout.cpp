// Batched multi-env rollout (rl::BatchedRollout + the decision-yield
// simulator surface). The load-bearing guarantee is exactness: driving B
// episodes through fused predict_batch forwards must reproduce the
// sequential per-episode driver bit for bit — same event digests, same
// SimMetrics, same recorded trajectories, same trained parameters — at
// every batch width, because each episode keeps its own engine and RNG
// streams and predict_batch equals predict_row per row (test_mlp pins
// that). Also covers the merge_batches_into edge cases the trainer's
// windows lean on: empty batches, single-contributor windows, and
// merge-order invariance around empties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "check/corpus.hpp"
#include "check/digest.hpp"
#include "core/batched_episode.hpp"
#include "core/observation.hpp"
#include "core/trainer.hpp"
#include "net/topology_zoo.hpp"
#include "nn/parallel.hpp"
#include "rl/batched_rollout.hpp"
#include "rl/updater.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "test_helpers.hpp"

namespace dosc {
namespace {

rl::ActorCritic make_policy(const sim::Scenario& scenario, std::uint64_t seed = 42,
                            std::size_t hidden = 16) {
  rl::ActorCriticConfig config;
  config.obs_dim = core::observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.network().max_degree() + 1;
  config.hidden = {hidden, hidden};
  config.seed = seed;
  return rl::ActorCritic(config);
}

struct EpisodeFingerprint {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t generated = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t decisions = 0;
  double e2e_mean = 0.0;
};

EpisodeFingerprint fingerprint(std::uint64_t digest, std::uint64_t events,
                               const sim::SimMetrics& metrics) {
  EpisodeFingerprint fp;
  fp.digest = digest;
  fp.events = events;
  fp.generated = metrics.generated;
  fp.succeeded = metrics.succeeded;
  fp.dropped = metrics.dropped;
  fp.decisions = metrics.decisions;
  fp.e2e_mean = metrics.e2e_delay.count() > 0 ? metrics.e2e_delay.mean() : 0.0;
  return fp;
}

void expect_equal(const EpisodeFingerprint& a, const EpisodeFingerprint& b,
                  const std::string& what) {
  EXPECT_EQ(a.digest, b.digest) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.generated, b.generated) << what;
  EXPECT_EQ(a.succeeded, b.succeeded) << what;
  EXPECT_EQ(a.dropped, b.dropped) << what;
  EXPECT_EQ(a.decisions, b.decisions) << what;
  EXPECT_EQ(a.e2e_mean, b.e2e_mean) << what;  // bitwise, not approximate
}

/// Sequential reference: episode e on `scenario` under a fresh greedy
/// coordinator, seeded seed_base + e, with a per-episode event digest.
EpisodeFingerprint run_sequential_greedy(const sim::Scenario& scenario,
                                         const rl::ActorCritic& policy, std::uint64_t seed) {
  sim::Simulator sim(scenario, seed);
  core::DistributedDrlCoordinator coordinator(policy, scenario.network().max_degree());
  check::EventDigest digest;
  sim.set_audit_hook(&digest);
  const sim::SimMetrics metrics = sim.run(coordinator);
  return fingerprint(digest.digest(), digest.events(), metrics);
}

TEST(BatchedRollout, ValidatesActorShape) {
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 200.0);
  const rl::ActorCritic policy = make_policy(scenario);
  EXPECT_THROW(rl::BatchedRollout(policy.actor(), 0), std::invalid_argument);
  EXPECT_THROW(rl::BatchedRollout(policy.actor(), policy.config().obs_dim + 1),
               std::invalid_argument);
}

/// Drives greedy episodes of each named scenario (a topology, or
/// "corpus:<entry>") through the batched driver at B in {1, 4, 16} under a
/// 2 x `hidden` net. Every batched episode must match its sequential twin
/// digest-for-digest; B = 1 additionally must take the GEMV path on every
/// round.
void expect_batched_greedy_matches_sequential(const std::vector<std::string>& scenarios,
                                              std::size_t hidden) {
  for (const std::string& name : scenarios) {
    const bool corpus = name.rfind("corpus:", 0) == 0;
    const sim::Scenario scenario =
        corpus ? check::CorpusGenerator::make(name.substr(7)).with_end_time(150.0)
               : sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, name,
                                         300.0);
    const rl::ActorCritic policy = make_policy(scenario, 42, hidden);
    const std::size_t obs_dim = policy.config().obs_dim;
    const std::string label = name + " 2x" + std::to_string(hidden);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      std::vector<EpisodeFingerprint> expected;
      for (std::size_t e = 0; e < width; ++e) {
        expected.push_back(run_sequential_greedy(scenario, policy, 9000 + e));
      }

      std::vector<std::unique_ptr<core::DistributedDrlCoordinator>> coordinators;
      std::vector<std::unique_ptr<core::YieldingEpisode>> episodes;
      std::vector<check::EventDigest> digests(width);
      std::vector<rl::BatchedEnv*> envs;
      for (std::size_t e = 0; e < width; ++e) {
        coordinators.push_back(std::make_unique<core::DistributedDrlCoordinator>(
            policy, scenario.network().max_degree()));
        episodes.push_back(std::make_unique<core::YieldingEpisode>(
            scenario, 9000 + e, *coordinators.back(), *coordinators.back()));
        episodes.back()->simulator().set_audit_hook(&digests[e]);
        envs.push_back(episodes.back().get());
      }
      rl::BatchedRollout driver(policy.actor(), obs_dim);
      const rl::BatchedRolloutStats stats = driver.run(envs);
      EXPECT_GT(stats.decisions, 0u) << label;
      EXPECT_LE(stats.max_rows, width) << label;
      if (width == 1) {
        // Single env: every round is a single row and must take the GEMV
        // (predict_row) path — the exact sequential fast path.
        EXPECT_EQ(stats.gemv_rounds, stats.rounds) << label;
        EXPECT_EQ(stats.max_rows, 1u) << label;
      }
      for (std::size_t e = 0; e < width; ++e) {
        const sim::SimMetrics metrics = episodes[e]->finish();
        expect_equal(fingerprint(digests[e].digest(), digests[e].events(), metrics),
                     expected[e],
                     label + " B=" + std::to_string(width) + " episode " + std::to_string(e));
      }
    }
  }
}

TEST(BatchedRollout, GreedyEpisodesBitIdenticalAcrossTopologiesAndWidths) {
  // The exactness gate: all four Table-I topologies plus the
  // fat-tree/WAN corpus entries at 2x16, then Abilene at the paper's 2x256
  // net (Sec. V-A2), the width perfbench times. Only Abilene runs at 2x256:
  // all six scenarios at that width take ~100 s under ASan.
  std::vector<std::string> scenarios = net::topology_names();
  scenarios.push_back("corpus:ft_k4_steady");
  scenarios.push_back("corpus:wan_100_steady");
  expect_batched_greedy_matches_sequential(scenarios, 16);
  expect_batched_greedy_matches_sequential({"abilene"}, 256);
}

TEST(BatchedRollout, StochasticTrainingEpisodesMatchSequentialBitForBit) {
  // Training flavor: sampled actions consume each env's own Rng stream and
  // land in its own TrajectoryBuffer. The batched drive must reproduce the
  // sequential sim.run(env, &env) episodes exactly — digests, rewards, and
  // every drained batch row (obs, action, return, behavior logp).
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 400.0);
  const rl::ActorCritic policy = make_policy(scenario, 7);
  const std::size_t obs_dim = policy.config().obs_dim;
  const std::size_t max_degree = scenario.network().max_degree();
  const std::size_t width = 4;

  std::vector<EpisodeFingerprint> expected;
  std::vector<rl::Batch> expected_batches;
  std::vector<double> expected_rewards;
  for (std::size_t e = 0; e < width; ++e) {
    rl::TrajectoryBuffer buffer(0.99);
    core::TrainingEnv env(policy, buffer, core::RewardConfig{}, max_degree,
                          util::Rng(100 + e), {}, /*record_behavior_logp=*/true);
    sim::Simulator sim(scenario, 500 + e);
    check::EventDigest digest;
    sim.set_audit_hook(&digest);
    const sim::SimMetrics metrics = sim.run(env, &env);
    expected.push_back(fingerprint(digest.digest(), digest.events(), metrics));
    expected_rewards.push_back(env.episode_reward());
    buffer.truncate_all();
    rl::Batch batch;
    buffer.drain_into(batch, policy, obs_dim, /*with_behavior_logp=*/true);
    expected_batches.push_back(std::move(batch));
  }

  std::vector<std::unique_ptr<rl::TrajectoryBuffer>> buffers;
  std::vector<std::unique_ptr<core::TrainingEnv>> train_envs;
  std::vector<std::unique_ptr<core::YieldingEpisode>> episodes;
  std::vector<check::EventDigest> digests(width);
  std::vector<rl::BatchedEnv*> envs;
  for (std::size_t e = 0; e < width; ++e) {
    buffers.push_back(std::make_unique<rl::TrajectoryBuffer>(0.99));
    train_envs.push_back(std::make_unique<core::TrainingEnv>(
        policy, *buffers.back(), core::RewardConfig{}, max_degree, util::Rng(100 + e),
        core::ObservationMask{}, /*record_behavior_logp=*/true));
    episodes.push_back(std::make_unique<core::YieldingEpisode>(
        scenario, 500 + e, *train_envs.back(), *train_envs.back(), train_envs.back().get()));
    episodes.back()->simulator().set_audit_hook(&digests[e]);
    envs.push_back(episodes.back().get());
  }
  rl::BatchedRollout driver(policy.actor(), obs_dim);
  driver.run(envs);
  for (std::size_t e = 0; e < width; ++e) {
    const sim::SimMetrics metrics = episodes[e]->finish();
    expect_equal(fingerprint(digests[e].digest(), digests[e].events(), metrics), expected[e],
                 "training episode " + std::to_string(e));
    EXPECT_EQ(train_envs[e]->episode_reward(), expected_rewards[e]);
    buffers[e]->truncate_all();
    rl::Batch batch;
    buffers[e]->drain_into(batch, policy, obs_dim, /*with_behavior_logp=*/true);
    const rl::Batch& want = expected_batches[e];
    ASSERT_EQ(batch.size(), want.size()) << "episode " << e;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch.actions[i], want.actions[i]) << "episode " << e << " row " << i;
      ASSERT_EQ(batch.returns[i], want.returns[i]) << "episode " << e << " row " << i;
      ASSERT_EQ(batch.behavior_logp[i], want.behavior_logp[i])
          << "episode " << e << " row " << i;
      for (std::size_t d = 0; d < obs_dim; ++d) {
        ASSERT_EQ(batch.obs(i, d), want.obs(i, d)) << "episode " << e << " row " << i;
      }
    }
  }
}

TEST(BatchedRollout, StreamingRunBitIdenticalToSequentialAtAnyWidth) {
  // The streaming flavor pulls replacement episodes as others drain, so the
  // refill interleaving differs from the fixed-set run(); per-episode results
  // must still match the sequential driver exactly, at every nominal width.
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 250.0);
  const rl::ActorCritic policy = make_policy(scenario);
  const std::size_t obs_dim = policy.config().obs_dim;
  const std::size_t episodes_total = 10;

  std::vector<EpisodeFingerprint> expected;
  for (std::size_t e = 0; e < episodes_total; ++e) {
    expected.push_back(run_sequential_greedy(scenario, policy, 6200 + e));
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    std::vector<std::unique_ptr<core::DistributedDrlCoordinator>> coordinators;
    std::vector<std::unique_ptr<core::YieldingEpisode>> episodes;
    std::vector<check::EventDigest> digests(episodes_total);
    std::size_t issued = 0;
    const rl::BatchedEnvSource source = [&]() -> rl::BatchedEnv* {
      if (issued >= episodes_total) return nullptr;
      const std::size_t e = issued++;
      coordinators.push_back(std::make_unique<core::DistributedDrlCoordinator>(
          policy, scenario.network().max_degree()));
      episodes.push_back(std::make_unique<core::YieldingEpisode>(
          scenario, 6200 + e, *coordinators.back(), *coordinators.back()));
      episodes.back()->simulator().set_audit_hook(&digests[e]);
      return episodes.back().get();
    };
    rl::BatchedRollout driver(policy.actor(), obs_dim);
    const rl::BatchedRolloutStats stats = driver.run(width, source);
    EXPECT_EQ(issued, episodes_total) << "width " << width;
    EXPECT_GT(stats.decisions, 0u) << "width " << width;
    EXPECT_LE(stats.max_rows, std::max<std::size_t>(width, 1)) << "width " << width;
    EXPECT_LE(stats.gemv_rows, stats.decisions) << "width " << width;
    if (width == 1) {
      // Nominal width 1 must reduce to the sequential fast path everywhere:
      // every round is one row, and every row goes through GEMV.
      EXPECT_EQ(stats.gemv_rounds, stats.rounds);
      EXPECT_EQ(stats.gemv_rows, stats.decisions);
    }
    for (std::size_t e = 0; e < episodes_total; ++e) {
      const sim::SimMetrics metrics = episodes[e]->finish();
      expect_equal(fingerprint(digests[e].digest(), digests[e].events(), metrics), expected[e],
                   "stream width " + std::to_string(width) + " episode " + std::to_string(e));
    }
  }
}

TEST(BatchedRollout, StreamingRunWithExhaustedSourceIsANoOp) {
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 200.0);
  const rl::ActorCritic policy = make_policy(scenario);
  rl::BatchedRollout driver(policy.actor(), policy.config().obs_dim);
  std::size_t calls = 0;
  const rl::BatchedEnvSource empty = [&]() -> rl::BatchedEnv* {
    ++calls;
    return nullptr;
  };
  const rl::BatchedRolloutStats stats = driver.run(8, empty);
  EXPECT_EQ(calls, 1u);  // nullptr means exhausted: no further pulls
  EXPECT_EQ(stats.decisions, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.max_rows, 0u);
}

TEST(BatchedRollout, GemvRowAccountingSplitsAtTheGemmTile) {
  // With 6 envs in flight the first rounds have rows = 6: 4 rows through the
  // fused GEMM tile, 2 through the per-row GEMV drain. The stats must
  // account every row to exactly one path.
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 200.0);
  const rl::ActorCritic policy = make_policy(scenario);
  std::vector<std::unique_ptr<core::DistributedDrlCoordinator>> coordinators;
  std::vector<std::unique_ptr<core::YieldingEpisode>> episodes;
  std::vector<rl::BatchedEnv*> envs;
  for (std::size_t e = 0; e < 6; ++e) {
    coordinators.push_back(std::make_unique<core::DistributedDrlCoordinator>(
        policy, scenario.network().max_degree()));
    episodes.push_back(std::make_unique<core::YieldingEpisode>(
        scenario, 70 + e, *coordinators.back(), *coordinators.back()));
    envs.push_back(episodes.back().get());
  }
  rl::BatchedRollout driver(policy.actor(), policy.config().obs_dim);
  const rl::BatchedRolloutStats stats = driver.run(envs);
  for (auto& ep : episodes) ep->finish();
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_EQ(stats.max_rows, 6u);
  // Rows not in a full multiple-of-4 prefix went through GEMV; with widths
  // decaying 6 -> 1 there must be both GEMM-served and GEMV-served rows.
  EXPECT_GT(stats.gemv_rows, 0u);
  EXPECT_LT(stats.gemv_rows, stats.decisions);
  EXPECT_GT(stats.gemv_rounds, 0u);  // rows < 4 tail rounds exist
  EXPECT_LT(stats.gemv_rounds, stats.rounds);
}

TEST(BatchedRollout, RecordsAchievedBatchWidthHistogram) {
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 200.0);
  const rl::ActorCritic policy = make_policy(scenario);
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  const std::uint64_t before = registry.histogram("rl.rollout.batch_rows").count();

  std::vector<std::unique_ptr<core::DistributedDrlCoordinator>> coordinators;
  std::vector<std::unique_ptr<core::YieldingEpisode>> episodes;
  std::vector<rl::BatchedEnv*> envs;
  for (std::size_t e = 0; e < 3; ++e) {
    coordinators.push_back(std::make_unique<core::DistributedDrlCoordinator>(
        policy, scenario.network().max_degree()));
    episodes.push_back(std::make_unique<core::YieldingEpisode>(
        scenario, 40 + e, *coordinators.back(), *coordinators.back()));
    envs.push_back(episodes.back().get());
  }
  rl::BatchedRollout driver(policy.actor(), policy.config().obs_dim);
  const rl::BatchedRolloutStats stats = driver.run(envs);
  telemetry::set_enabled(false);

  const std::uint64_t after = registry.histogram("rl.rollout.batch_rows").count();
  EXPECT_EQ(after - before, stats.rounds);
  EXPECT_GT(stats.rounds, 0u);
}

TEST(EvaluatePolicy, BatchedEvalBitIdenticalAtEveryWidthAndParallelism) {
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 300.0);
  const rl::ActorCritic policy = make_policy(scenario);
  const core::RewardConfig reward;
  const std::size_t episodes = 6;
  const core::EvalResult base = core::evaluate_policy(scenario, policy, reward, episodes,
                                                      300.0, /*seed_base=*/9100);
  for (const std::size_t batch : {std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
    for (const std::size_t parallel : {std::size_t{1}, std::size_t{2}}) {
      const core::EvalResult got =
          core::evaluate_policy(scenario, policy, reward, episodes, 300.0, 9100, {},
                                parallel, batch);
      EXPECT_EQ(got.success_ratio, base.success_ratio) << "B=" << batch << " p=" << parallel;
      EXPECT_EQ(got.mean_reward, base.mean_reward) << "B=" << batch << " p=" << parallel;
      EXPECT_EQ(got.mean_e2e_delay, base.mean_e2e_delay) << "B=" << batch << " p=" << parallel;
    }
  }
}

core::TrainingConfig tiny_training_config() {
  core::TrainingConfig config;
  config.hidden = {8, 8};
  config.num_seeds = 1;
  config.parallel_envs = 3;
  config.iterations = 4;
  config.train_episode_time = 300.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 300.0;
  return config;
}

sim::Scenario tiny_training_scenario() {
  test::TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 300.0;
  options.interarrival = 10.0;
  return test::tiny_scenario(test::line3(), test::one_component_catalog(), options);
}

/// Alg. 1 replayed one episode at a time through Simulator::run (the
/// per-decision Coordinator path): the parameters the trainer must reach.
/// With `overlapped`, iteration i rolls out under a copy of theta_(i-1)
/// (theta_k: the parameters after k updates; theta_0 at i = 0), records
/// behavior log-probs, and keeps them for every window but the fresh first.
std::vector<double> reference_parameters(const sim::Scenario& scenario,
                                         const core::TrainingConfig& config, bool overlapped) {
  const std::size_t max_degree = scenario.network().max_degree();
  const std::size_t obs_dim = core::observation_dim(max_degree);
  rl::ActorCriticConfig net_config;
  net_config.obs_dim = obs_dim;
  net_config.num_actions = max_degree + 1;
  net_config.hidden = config.hidden;
  net_config.seed = config.seed_base;  // seed index 0
  rl::ActorCritic net(net_config);
  rl::ActorCritic behavior(net_config);
  std::vector<double> previous = net.get_parameters();
  rl::Updater updater(config.updater);
  const sim::Scenario train_scenario = scenario.with_end_time(config.train_episode_time);
  for (std::size_t iteration = 0; iteration < config.iterations; ++iteration) {
    behavior.set_parameters(previous);
    const rl::ActorCritic& policy = overlapped ? behavior : net;
    std::vector<rl::Batch> batches;
    for (std::size_t e = 0; e < config.parallel_envs; ++e) {
      const std::uint64_t es = core::episode_seed(config.seed_base, 0, iteration, e);
      rl::TrajectoryBuffer buffer(config.gamma);
      core::TrainingEnv env(policy, buffer, config.reward, max_degree, util::Rng(es * 31 + 7),
                            config.observation_mask, /*record_behavior_logp=*/overlapped);
      sim::Simulator sim(train_scenario, es);
      sim.run(env, &env);
      buffer.truncate_all();
      batches.emplace_back();
      buffer.drain_into(batches.back(), policy, obs_dim, /*with_behavior_logp=*/overlapped);
      if (iteration == 0) batches.back().behavior_logp.clear();
    }
    util::Rng sample_rng(core::episode_seed(config.seed_base, 0, iteration, 777));
    rl::Batch merged;
    rl::merge_batches_into(merged, batches, obs_dim, config.max_update_steps, sample_rng);
    previous = net.get_parameters();
    updater.update(net, merged);
  }
  return net.get_parameters();
}

TEST(Trainer, SyncTrainerMatchesSequentialEpisodeReference) {
  // The trainer drives its l envs through one BatchedRollout; overlapped, on
  // a helper thread during the previous update. The trained parameters must
  // match the sequential reference bit for bit in both schedules, at l = 1
  // (every round one GEMV row) and at l = 3, at one compute thread and at
  // the default (0): neither the GEMM budget nor which thread finishes
  // first may reach the parameters.
  const sim::Scenario scenario = tiny_training_scenario();
  for (const bool overlapped : {false, true}) {
    for (const std::size_t envs : {std::size_t{1}, std::size_t{3}}) {
      core::TrainingConfig config = tiny_training_config();
      config.parallel_envs = envs;
      config.async = overlapped;
      const std::vector<double> expected = reference_parameters(scenario, config, overlapped);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        const nn::ComputeThreadsGuard budget(threads);
        std::vector<double> is_weights;  // one progress call per update, in order
        const core::TrainedPolicy trained = core::train_distributed_policy(
            scenario, config, [&](const core::TrainingProgress& p) {
              EXPECT_EQ(p.iteration, is_weights.size());
              is_weights.push_back(p.update.mean_is_weight);
            });
        ASSERT_EQ(is_weights.size(), config.iterations);
        // Window 0 is fresh in both schedules; overlapped, every later window
        // is one update stale and its clipped weights average below 1.
        EXPECT_EQ(is_weights[0], 1.0);
        for (std::size_t i = 1; i < is_weights.size(); ++i) {
          if (overlapped) {
            EXPECT_LT(is_weights[i], 1.0) << "update " << i;
          } else {
            EXPECT_EQ(is_weights[i], 1.0) << "update " << i;
          }
        }
        ASSERT_EQ(trained.parameters.size(), expected.size()) << "l=" << envs;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(trained.parameters[i], expected[i])
              << "async=" << overlapped << " l=" << envs << " threads=" << threads
              << " parameter " << i;
        }
      }
    }
  }
}

// ---- merge_batches_into edge cases (the batched windows' merge path) ----

rl::ActorCritic tiny_net() {
  rl::ActorCriticConfig config;
  config.obs_dim = 3;
  config.num_actions = 2;
  config.hidden = {4};
  config.seed = 1;
  return rl::ActorCritic(config);
}

rl::Batch tiny_batch(const rl::ActorCritic& net, std::uint64_t key, double reward,
                     int steps) {
  rl::TrajectoryBuffer buffer(1.0);
  const std::vector<double> obs{0.1 * static_cast<double>(key), 0.2, 0.3};
  for (int s = 0; s < steps; ++s) {
    buffer.record_decision(key, obs, s % 2, -0.5);
    buffer.record_reward(key, reward);
  }
  buffer.finish(key);
  rl::Batch batch;
  buffer.drain_into(batch, net, 3, /*with_behavior_logp=*/true);
  return batch;
}

TEST(MergeBatches, AllZeroLengthBatchesMergeToEmpty) {
  const rl::ActorCritic net = tiny_net();
  const std::vector<rl::Batch> batches(4);  // all empty
  rl::Batch merged;
  merged = tiny_batch(net, 9, 1.0, 2);  // pre-populated: must be cleared
  util::Rng rng(1);
  rl::merge_batches_into(merged, batches, 3, 100, rng);
  EXPECT_EQ(merged.size(), 0u);
}

TEST(MergeBatches, SingleEnvContributingAllRowsIsVerbatim) {
  // One non-empty batch among empties, under the cap: the merge must hand
  // back that batch's rows verbatim, wherever it sits in the window.
  const rl::ActorCritic net = tiny_net();
  const rl::Batch source = tiny_batch(net, 3, 2.0, 5);
  for (std::size_t position = 0; position < 3; ++position) {
    std::vector<rl::Batch> batches(3);
    batches[position] = tiny_batch(net, 3, 2.0, 5);
    rl::Batch merged;
    util::Rng rng(7);
    rl::merge_batches_into(merged, batches, 3, 100, rng);
    ASSERT_EQ(merged.size(), source.size()) << "position " << position;
    for (std::size_t i = 0; i < source.size(); ++i) {
      ASSERT_EQ(merged.actions[i], source.actions[i]);
      ASSERT_EQ(merged.returns[i], source.returns[i]);
      ASSERT_EQ(merged.behavior_logp[i], source.behavior_logp[i]);
      for (std::size_t d = 0; d < 3; ++d) ASSERT_EQ(merged.obs(i, d), source.obs(i, d));
    }
  }
}

TEST(MergeBatches, EmptyBatchesDoNotPerturbTheMerge) {
  // Merge-order invariance around empties: inserting zero-length batches at
  // any position changes nothing — neither the concatenation below the cap
  // nor the reservoir subsample above it (empties consume no rng draws).
  const rl::ActorCritic net = tiny_net();
  const auto merge = [&](const std::vector<rl::Batch>& batches, std::size_t cap) {
    rl::Batch merged;
    util::Rng rng(123);
    rl::merge_batches_into(merged, batches, 3, cap, rng);
    return merged;
  };
  const auto expect_same = [](const rl::Batch& a, const rl::Batch& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.behavior_logp.size(), b.behavior_logp.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.actions[i], b.actions[i]);
      ASSERT_EQ(a.returns[i], b.returns[i]);
      for (std::size_t d = 0; d < 3; ++d) ASSERT_EQ(a.obs(i, d), b.obs(i, d));
    }
  };

  std::vector<rl::Batch> dense;
  dense.push_back(tiny_batch(net, 1, 1.0, 4));
  dense.push_back(tiny_batch(net, 2, -1.0, 6));
  std::vector<rl::Batch> sparse;
  sparse.emplace_back();  // leading empty
  sparse.push_back(tiny_batch(net, 1, 1.0, 4));
  sparse.emplace_back();  // middle empty
  sparse.push_back(tiny_batch(net, 2, -1.0, 6));
  sparse.emplace_back();  // trailing empty

  expect_same(merge(dense, 100), merge(sparse, 100));  // below the cap
  expect_same(merge(dense, 5), merge(sparse, 5));      // reservoir path
}

// ---- the drain contract (rl::BatchedEnv) ----

/// Scripted env with a fixed number of decision points that fails the test
/// on any call after its advance_to_decision has returned false.
class DrainCheckingEnv final : public rl::BatchedEnv {
 public:
  explicit DrainCheckingEnv(std::size_t decisions) : remaining_(decisions) {}

  bool advance_to_decision() override {
    check("advance_to_decision");
    if (remaining_ == 0) {
      drained_ = true;
      return false;
    }
    return true;
  }
  void write_observation(std::span<double> out) override {
    check("write_observation");
    std::fill(out.begin(), out.end(), 0.25 * static_cast<double>(remaining_));
  }
  void apply_logits(std::span<const double>) override {
    check("apply_logits");
    --remaining_;
    ++applied_;
  }

  bool drained() const noexcept { return drained_; }
  std::size_t applied() const noexcept { return applied_; }

 private:
  void check(const char* call) {
    if (drained_) ADD_FAILURE() << call << " called after the env drained";
  }

  std::size_t remaining_;
  std::size_t applied_ = 0;
  bool drained_ = false;
};

TEST(BatchedRollout, NoCallReachesAnEnvAfterItDrains) {
  // Episodes of uneven length, zero-decision ones included, so envs drain
  // at the refill, mid-round and in the last round. evaluate_policy's slots
  // free their simulator inside the draining call and rely on this.
  const rl::ActorCritic net = tiny_net();
  const std::vector<std::size_t> lengths{0, 4, 1, 6, 0, 2, 5, 3, 1};
  std::size_t total = 0;
  for (const std::size_t n : lengths) total += n;

  std::vector<std::unique_ptr<DrainCheckingEnv>> fixed;
  std::vector<rl::BatchedEnv*> ptrs;
  for (const std::size_t n : lengths) {
    fixed.push_back(std::make_unique<DrainCheckingEnv>(n));
    ptrs.push_back(fixed.back().get());
  }
  rl::BatchedRollout driver(net.actor(), 3);
  EXPECT_EQ(driver.run(ptrs).decisions, total);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_TRUE(fixed[i]->drained()) << "env " << i;
    EXPECT_EQ(fixed[i]->applied(), lengths[i]) << "env " << i;
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    std::vector<std::unique_ptr<DrainCheckingEnv>> streamed;
    const rl::BatchedEnvSource source = [&]() -> rl::BatchedEnv* {
      if (streamed.size() == lengths.size()) return nullptr;
      streamed.push_back(std::make_unique<DrainCheckingEnv>(lengths[streamed.size()]));
      return streamed.back().get();
    };
    EXPECT_EQ(driver.run(width, source).decisions, total) << "width " << width;
    ASSERT_EQ(streamed.size(), lengths.size());
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      EXPECT_TRUE(streamed[i]->drained()) << "width " << width << " env " << i;
      EXPECT_EQ(streamed[i]->applied(), lengths[i]) << "width " << width << " env " << i;
    }
  }
}

}  // namespace
}  // namespace dosc
