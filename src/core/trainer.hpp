// Centralized offline training with distributed inference (Sec. IV-C).
//
// One logically centralized actor-critic is trained from the experience of
// *all* agents: every decision at every node lands in a shared trajectory
// buffer, so nodes that see few flows still contribute to — and benefit
// from — the shared policy. Training runs l environment copies per
// iteration (A3C-style data from l envs, one synchronous ACKTR update) and
// k independent seeds; the seed with the best greedy evaluation is selected
// and its network is what gets copied to every node for inference. Every
// episode — training and evaluation — is driven by rl::BatchedRollout.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/drl_env.hpp"
#include "rl/updater.hpp"
#include "sim/scenario.hpp"

namespace dosc::core {

struct TrainingConfig {
  rl::UpdaterConfig updater;            ///< ACKTR with the paper's hyperparameters
  std::vector<std::size_t> hidden{64, 64};
  RewardConfig reward;
  ObservationMask observation_mask;     ///< ablations only; default: all parts on
  double gamma = 0.99;             ///< paper: discount factor 0.99
  std::size_t num_seeds = 3;       ///< paper: k = 10 training seeds
  /// paper: l = 4 parallel environments. The l episodes of an iteration
  /// advance together on one thread through one rl::BatchedRollout (their
  /// decision forwards fuse into one GEMM).
  std::size_t parallel_envs = 4;
  std::size_t iterations = 150;    ///< updates per seed (l episodes each)
  double train_episode_time = 1000.0;  ///< T of each training episode (ms)
  /// Updates use at most this many experiences (uniform row subsample);
  /// keeps the per-update cost bounded when episodes produce many steps.
  static constexpr std::size_t max_update_steps = 4096;
  std::size_t eval_episodes = 3;   ///< greedy evaluation for agent selection
  double eval_episode_time = 2000.0;
  /// Ignored: the l training environments always roll out through one
  /// batched driver. Kept only because the benchmark harness still assigns
  /// it; due for removal with the next benchmark change.
  bool batched_rollout = false;
  std::uint64_t seed_base = 1;
  /// Overlapped training: iteration i+1's l episodes roll out on a helper
  /// thread, under a copy of the parameters taken before update i, while
  /// update i runs. Every update after the first then trains on rows one
  /// update stale, weighted by the clipped-IS correction
  /// (UpdaterConfig::is_clip); the schedule is fixed, so results are
  /// bit-reproducible at any compute-thread count. Off: Alg. 1's strict
  /// rollout-then-update alternation.
  bool async = false;

  /// The paper's full-scale settings (Sec. V-A2): 2x256 hidden units,
  /// k = 10 seeds, l = 4 environments. Training time grows accordingly.
  static TrainingConfig paper_scale();
};

/// A trained, deployable policy: network shape + flat parameters, plus the
/// padded degree it was trained for. Instantiate one ActorCritic and share
/// it read-only across all per-node agents.
struct TrainedPolicy {
  rl::ActorCriticConfig net_config;
  std::vector<double> parameters;
  std::size_t max_degree = 0;
  double eval_success_ratio = 0.0;  ///< of the selected (best) seed
  double eval_reward = 0.0;
  std::vector<double> per_seed_success;  ///< evaluation result of every seed

  rl::ActorCritic instantiate() const;
};

struct TrainingProgress {
  std::size_t seed_index = 0;
  std::size_t iteration = 0;
  double mean_episode_reward = 0.0;
  rl::UpdateStats update;
};
using ProgressCallback = std::function<void(const TrainingProgress&)>;

/// Train on the given scenario and return the best agent across seeds.
TrainedPolicy train_distributed_policy(const sim::Scenario& scenario,
                                       const TrainingConfig& config,
                                       const ProgressCallback& progress = nullptr);

/// Greedy evaluation of a policy: mean success ratio and mean shaped
/// episode reward over `episodes` runs with seeds seed_base, seed_base+1...
struct EvalResult {
  double success_ratio = 0.0;
  double mean_reward = 0.0;
  double mean_e2e_delay = 0.0;
};
/// `parallel_episodes` worker threads claim episodes concurrently (0 = one
/// worker per hardware thread). The episodes are fully independent — each
/// gets its own Simulator seeded seed_base + e and its own coordinator —
/// and the per-episode stats are merged in ascending episode order after
/// all workers join, so the result is bit-identical for every parallelism
/// level, including the sequential default. Each worker streams its claims
/// through one rl::BatchedRollout with `batch_envs` episodes in flight,
/// fusing their greedy policy forwards into one GEMM (1 = per-row GEMV);
/// the greedy decision per row depends only on that row's logits, so this
/// too is bit-identical at any batch size. A drained episode frees its
/// simulator at once: a worker holds at most `batch_envs` simulators.
EvalResult evaluate_policy(const sim::Scenario& scenario, const rl::ActorCritic& policy,
                           const RewardConfig& reward, std::size_t episodes,
                           double episode_time, std::uint64_t seed_base,
                           ObservationMask mask = {}, std::size_t parallel_episodes = 1,
                           std::size_t batch_envs = 1);

/// Deterministic per-episode simulator seed, decorrelated across
/// (training seed, iteration, environment) so the l parallel workers of an
/// iteration — and consecutive iterations — see independent traffic. Pure
/// function of its inputs; exposed so tests can pin the stream contract.
std::uint64_t episode_seed(std::uint64_t base, std::size_t seed_index, std::size_t iteration,
                           std::size_t env_index) noexcept;

}  // namespace dosc::core
