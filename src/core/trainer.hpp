// Centralized offline training with distributed inference (Sec. IV-C).
//
// One logically centralized actor-critic is trained from the experience of
// *all* agents: every decision at every node lands in a shared trajectory
// buffer, so nodes that see few flows still contribute to — and benefit
// from — the shared policy. Training runs l environment copies per
// iteration (A3C-style data from l envs, one synchronous ACKTR update) and
// k independent seeds, as many at once as the compute-thread budget allows
// (nn/parallel.hpp); the seed with the best greedy evaluation is selected
// and its network is what gets copied to every node for inference. Every
// episode — training and evaluation — is driven by rl::BatchedRollout.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/drl_env.hpp"
#include "rl/updater.hpp"
#include "sim/scenario.hpp"

namespace dosc::core {

/// One DRL training run (Alg. 1). Both agents train from it: the
/// distributed agent here, the central baseline in
/// baselines::train_central_policy.
struct TrainingConfig {
  rl::UpdaterConfig updater;            ///< ACKTR with the paper's hyperparameters
  std::vector<std::size_t> hidden{64, 64};
  RewardConfig reward;
  ObservationMask observation_mask;     ///< ablations only; default: all parts on
  double gamma = 0.99;             ///< paper: discount factor 0.99
  std::size_t num_seeds = 3;       ///< paper: k = 10 training seeds
  /// paper: l = 4 parallel environments, all on the seed's thread. The
  /// distributed agent's l episodes of an iteration advance together
  /// through one rl::BatchedRollout (their decision forwards fuse into one
  /// GEMM); the central baseline runs its l one after another.
  std::size_t parallel_envs = 4;
  std::size_t iterations = 150;    ///< updates per seed (l episodes each)
  double train_episode_time = 1000.0;  ///< T of each training episode (ms)
  /// Each update of either agent (train_seed) uses at most this many rows,
  /// a uniform subsample of the iteration's l batches; keeps the per-update
  /// cost bounded when episodes produce many steps.
  static constexpr std::size_t max_update_steps = 4096;
  std::size_t eval_episodes = 3;   ///< greedy evaluation for agent selection
  double eval_episode_time = 2000.0;
  /// Ignored: the l training environments always roll out through one
  /// batched driver. Kept only because the benchmark harness still assigns
  /// it; due for removal with the next benchmark change.
  bool batched_rollout = false;
  std::uint64_t seed_base = 1;

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
/// Called once per update (train_seed). train_distributed_policy serialises
/// the calls: seeds that train concurrently never call it at the same time,
/// and one seed's iterations arrive in order, but calls of different seeds
/// interleave and may come from different threads.
using ProgressCallback = std::function<void(const TrainingProgress&)>;

/// Train on the given scenario and return the best agent across seeds
/// (train_best_seed, so seeds train concurrently).
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
/// `parallel_episodes` worker threads claim episodes concurrently (0 =
/// nn::compute_threads(), the DOSC_THREADS budget). The episodes are fully
/// independent — each gets its own Simulator seeded seed_base + e and its
/// own coordinator — and the per-episode stats are merged in ascending
/// episode order after all workers join, so the result is bit-identical for
/// every parallelism level, including the sequential default. Each worker streams its claims
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

/// Trains one seed's freshly initialised network in place. Called
/// concurrently for different seeds (train_best_seed), each call with its
/// own network, so it must not write state that seeds share.
using SeedTrainer = std::function<void(rl::ActorCritic& net, std::size_t seed_index)>;
/// Greedy evaluation of a trained network on simulator seeds seed_base,
/// seed_base + 1, ... Called concurrently for different seeds, like
/// SeedTrainer.
using SeedEvaluator =
    std::function<EvalResult(const rl::ActorCritic& net, std::uint64_t seed_base)>;

/// Rolls out one iteration of a seed's training: environment e = 0 .. l-1
/// runs one episode of the network being trained, on simulator seed
/// episode_seed(config.seed_base, seed_index, iteration, e), records its
/// decisions and rewards into buffers[e] and writes its total shaped reward
/// into episode_rewards[e]. Runs on the seed's thread.
using IterationRollout =
    std::function<void(std::size_t iteration, std::span<rl::TrajectoryBuffer> buffers,
                       std::span<double> episode_rewards)>;

/// One seed's Alg. 1 iteration loop, the only one both DRL agents train
/// through (each agent's SeedTrainer calls it with its own rollout). Per
/// iteration: `rollout` fills the l = config.parallel_envs buffers; the loop
/// truncates the open trajectories, drains each buffer into its batch,
/// merges the l batches in env order (capped at max_update_steps rows by a
/// reservoir subsample drawn from episode_seed(config.seed_base,
/// seed_index, iteration, 777)), applies one update to `net` and calls
/// `progress`. Buffers and batches are reused across iterations. Records
/// the `train`/`rollout` and `train`/`update` trace spans and, with
/// telemetry on, the train.* metrics.
void train_seed(rl::ActorCritic& net, const TrainingConfig& config, std::size_t obs_dim,
                std::size_t seed_index, const IterationRollout& rollout,
                const ProgressCallback& progress = nullptr);

/// The k-seed recipe of Alg. 1, the one loop both DRL agents (distributed
/// and the central baseline) train through. For each seed i = 0 ..
/// num_seeds-1, a fresh ActorCritic (obs_dim -> config.hidden ->
/// num_actions) seeded config.seed_base + i is trained by `train`, then
/// evaluated by `evaluate` on seeds 9000 + i, and its success ratio is
/// recorded in per_seed_success[i]. The deployed seed has the highest
/// success ratio, then the highest mean reward, then the lower seed index.
///
/// Concurrency: min(nn::compute_threads(), num_seeds) workers claim seed
/// indices in order, and each trains and evaluates its seed on its own
/// thread. Only the best seed's parameters are kept. The result depends
/// only on what `train` and `evaluate` compute per seed, never on the
/// number of workers or on which seed finishes first; at one worker every
/// seed runs on the calling thread in index order. If a seed throws, no
/// further seed starts, and the first exception is rethrown once every
/// worker has joined. Throws std::invalid_argument unless config.num_seeds
/// and config.parallel_envs are > 0.
TrainedPolicy train_best_seed(const sim::Scenario& scenario, const TrainingConfig& config,
                              std::size_t obs_dim, std::size_t num_actions,
                              const SeedTrainer& train, const SeedEvaluator& evaluate);

/// How many of `num_seeds` seeds train_best_seed trains at once:
/// min(nn::compute_threads(), num_seeds).
std::size_t seed_workers(std::size_t num_seeds) noexcept;

/// Deterministic per-episode simulator seed, decorrelated across
/// (training seed, iteration, environment) so the l parallel workers of an
/// iteration — and consecutive iterations — see independent traffic. Pure
/// function of its inputs; exposed so tests can pin the stream contract.
std::uint64_t episode_seed(std::uint64_t base, std::size_t seed_index, std::size_t iteration,
                           std::size_t env_index) noexcept;

}  // namespace dosc::core
