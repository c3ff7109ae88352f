// Centralized offline training with distributed inference (Sec. IV-C).
//
// One logically centralized actor-critic is trained from the experience of
// *all* agents: every decision at every node lands in a shared trajectory
// buffer, so nodes that see few flows still contribute to — and benefit
// from — the shared policy. Training runs l environment copies per
// iteration (A3C-style data from l envs, one synchronous ACKTR update) and
// k independent seeds; the seed with the best greedy evaluation is selected
// and its network is what gets copied to every node for inference. Every
// episode — training and evaluation, sync and async — is driven by
// rl::BatchedRollout.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/drl_env.hpp"
#include "rl/updater.hpp"
#include "sim/scenario.hpp"

namespace dosc::core {

/// Knobs for the decoupled async actor/learner mode (rl::AsyncTrainer).
/// With `enabled`, each seed trains with `num_workers` persistent rollout
/// workers feeding a learner thread through lock-free queues instead of the
/// barrier-synchronised iteration loop; `iterations` becomes the learner
/// update count and `parallel_envs` the episodes merged per update. The
/// configuration num_workers = 1, max_staleness = 0 is bit-identical to the
/// synchronous trainer.
struct AsyncTrainingConfig {
  bool enabled = false;
  std::size_t num_workers = 2;
  std::size_t queue_capacity = 8;   ///< per-worker trajectory queue depth
  std::size_t max_staleness = 1;    ///< pacing bound K (0 = lockstep)
  /// Learner GEMM threads; 0 = hardware threads minus workers (>= 1). See
  /// rl::resolve_thread_budget for the oversubscription guard.
  std::size_t learner_threads = 0;
  /// Most environments each worker drives concurrently through its
  /// rl::BatchedRollout: decision forwards across the B in-flight episodes
  /// fuse into one GEMM, and a worker's update window merges more episodes
  /// per gate pass. 1 = one episode at a time, per-row GEMV forwards.
  /// Lockstep parity (1 worker, max_staleness 0) is preserved for any B.
  std::size_t envs_per_worker = 1;
};

struct TrainingConfig {
  rl::UpdaterConfig updater;            ///< ACKTR with the paper's hyperparameters
  std::vector<std::size_t> hidden{64, 64};
  RewardConfig reward;
  ObservationMask observation_mask;     ///< ablations only; default: all parts on
  double gamma = 0.99;             ///< paper: discount factor 0.99
  std::size_t num_seeds = 3;       ///< paper: k = 10 training seeds
  /// paper: l = 4 parallel environments. The l episodes of an iteration
  /// advance together on the calling thread through one rl::BatchedRollout
  /// (their decision forwards fuse into one GEMM); use async.num_workers to
  /// spread rollout over cores.
  std::size_t parallel_envs = 4;
  std::size_t iterations = 150;    ///< updates per seed (l episodes each)
  double train_episode_time = 1000.0;  ///< T of each training episode (ms)
  /// Updates use at most this many experiences (uniform row subsample);
  /// keeps the per-update cost bounded when episodes produce many steps.
  std::size_t max_update_steps = 4096;
  std::size_t eval_episodes = 3;   ///< greedy evaluation for agent selection
  double eval_episode_time = 2000.0;
  /// Concurrent eval episodes (0 = one per hardware thread). Any value
  /// yields bit-identical evaluation results; see evaluate_policy.
  std::size_t eval_parallel = 1;
  /// Episodes each eval worker keeps in flight in its rl::BatchedRollout
  /// (fused policy forwards; 1 = per-row GEMV). A worker holds at most this
  /// many simulators. Any value yields bit-identical results; see
  /// evaluate_policy.
  std::size_t eval_batch = 1;
  /// Ignored: the l training environments always roll out through one
  /// batched driver. Kept only because the benchmark harness still assigns
  /// it; due for removal with the next benchmark change.
  bool batched_rollout = false;
  std::uint64_t seed_base = 1;
  bool verbose = false;
  AsyncTrainingConfig async;       ///< decoupled actor/learner mode

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
