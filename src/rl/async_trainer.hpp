// Decoupled asynchronous actor/learner training (SURREAL-style).
//
// The synchronous trainer alternates phases: its l environments roll out
// one episode each, then one update runs on the merged batch while rollout
// sits idle. This module removes the barrier. N persistent rollout workers
// each own a policy replica, a BatchedRollout driver and one pooled
// TrajectoryBuffer per in-flight episode; they claim episode tickets in
// rounds of up to envs_per_worker, run them continuously, and push
// completed trajectory chunks through per-worker bounded lock-free SPSC
// queues. A learner thread drains the queues, batches `episodes_per_update`
// chunks per step, and runs the same zero-alloc Updater — with clipped-IS
// (V-trace-style) staleness correction keyed on the per-snapshot policy
// version, so experience collected under an older policy still yields an
// unbiased-enough gradient. Updated parameters are published wait-free
// through util::EpochPublished; workers pick up the freshest snapshot at
// the next round boundary.
//
// Off-policy pacing: a worker may start an episode only when
//   published_version >= episode_index / l - max_staleness,
// so max_staleness = 0 degenerates to lockstep. In that mode with one
// worker, every chunk is rolled out under exactly the snapshot the
// consuming update starts from, every chunk in an update window is fresh
// (the learner then strips behavior_logp and the Updater takes the
// on-policy code path verbatim), and the chunk order through the single
// FIFO queue equals the synchronous env order — the resulting parameter
// trajectory is bit-identical to the synchronous trainer
// (test_async_trainer pins this). With workers > 1 the update composition
// depends on completion timing and runs are not bit-reproducible; each
// episode's own simulation stays seed-deterministic.
//
// Threading contract: workers' decision forwards are one row, or one small
// fused batch per round; the learner owns the GEMM compute-thread budget
// for the whole run (see resolve_thread_budget), so the two sides
// partition the machine instead of competing for cores.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rl/batched_rollout.hpp"
#include "rl/rollout.hpp"
#include "rl/updater.hpp"

namespace dosc::rl {

/// Immutable parameter snapshot published by the learner. `version` is the
/// number of learner updates applied when it was published; chunks carry
/// the version they were rolled out under, and staleness at consumption is
/// `updates_done - version`.
struct PolicySnapshot {
  std::vector<double> parameters;
  std::uint64_t version = 0;
};

/// Creates the environment for one episode ticket, sampling from `policy`
/// and recording decisions and rewards (behavior log-probs included) into
/// `buffer`. `worker` is the worker index, `episode` a globally unique
/// episode ticket issued in increasing order; derive the episode seed from
/// them. The simulator stays behind the callback, keeping this layer
/// simulation-free; the worker drives the episode through BatchedRollout.
using EpisodeFactory = std::function<std::unique_ptr<RolloutEpisode>(
    std::size_t worker, std::size_t episode, const ActorCritic& policy,
    TrajectoryBuffer& buffer)>;

struct AsyncTrainerConfig {
  std::size_t num_workers = 2;
  /// Chunks (episodes) merged into each learner update — the async
  /// equivalent of the synchronous trainer's l parallel environments.
  std::size_t episodes_per_update = 4;
  std::size_t updates = 150;          ///< total learner updates to run
  std::size_t max_update_steps = 4096;
  std::size_t queue_capacity = 8;     ///< per-worker chunk queue depth
  /// Pacing bound K: a worker may start episode g only once the published
  /// snapshot version reaches g / episodes_per_update - K. 0 = lockstep
  /// (bit-identical to the synchronous trainer at 1 worker). Staleness at
  /// consumption can transiently exceed K when queues back up; the clipped
  /// importance weights absorb that tail.
  std::size_t max_staleness = 1;
  /// GEMM threads reserved for the learner; 0 = hardware threads minus
  /// workers (at least 1). See resolve_thread_budget.
  std::size_t learner_threads = 0;
  std::size_t obs_dim = 0;            ///< required
  double gamma = 0.99;
  /// Optional pre-warm bounds for each worker's TrajectoryBuffer
  /// (TrajectoryBuffer::reserve): expected concurrently-open flows per
  /// episode and decisions per flow. 0 = no pre-warm; pools grow
  /// organically over the first episodes instead.
  std::size_t reserve_flows = 0;
  std::size_t reserve_steps_per_flow = 0;
  UpdaterConfig updater;              ///< includes is_clip for the IS correction
  /// Seed for the per-update merge subsample rng. The synchronous trainer's
  /// caller injects its episode_seed(..., 777) stream here so the lockstep
  /// configuration reproduces it exactly. Default: a fixed hash of the
  /// update index.
  std::function<std::uint64_t(std::size_t update)> merge_seed;
  /// Most tickets a worker claims per round; the round's episodes run
  /// concurrently through one BatchedRollout (fused decision forwards, one
  /// trajectory buffer per in-flight episode). At 1 a round holds one
  /// ticket and every decision takes the per-row GEMV path. A worker blocks
  /// on the staleness gate only for its first ticket of a round and claims
  /// the rest opportunistically (gate already passed), so pacing cannot
  /// deadlock; in lockstep (max_staleness 0) a whole update window's
  /// tickets pass together and the window composition — and the parameter
  /// trajectory — is the same at every width.
  std::size_t envs_per_worker = 1;
  /// Required: builds every episode the workers roll out.
  EpisodeFactory episode_factory;
};

struct AsyncProgress {
  std::size_t update = 0;
  double mean_episode_reward = 0.0;  ///< over the chunks consumed by this update
  double mean_staleness = 0.0;       ///< over the chunks consumed by this update
  UpdateStats stats;
};
using AsyncProgressFn = std::function<void(const AsyncProgress&)>;

struct AsyncTrainStats {
  std::size_t updates = 0;
  std::size_t episodes = 0;       ///< chunks consumed by the learner
  std::size_t env_steps = 0;      ///< total batch rows consumed
  double mean_staleness = 0.0;    ///< over all consumed chunks
  std::size_t workers = 0;        ///< resolved thread budget actually used
  std::size_t learner_threads = 0;
  /// Episodes rolled per claim round, averaged over all rounds — how many
  /// episodes a worker delivered per staleness-gate pass. Between 1 and
  /// envs_per_worker; exactly 1 at envs_per_worker 1.
  double mean_envs_per_round = 0.0;
};

/// Explicit non-overlapping thread budgets for the async trainer: rollout
/// workers and learner GEMM threads partition the machine instead of
/// oversubscribing it. `requested_learner_threads == 0` gives the learner
/// whatever the workers leave (at least 1); an explicit request is clamped
/// so workers + learner_threads never exceed `hardware_threads` (each side
/// keeps a floor of 1, so a machine smaller than the worker count still
/// runs — merely timeshared). Pure function; exposed for tests.
struct ThreadBudget {
  std::size_t workers = 1;
  std::size_t learner_threads = 1;
};
ThreadBudget resolve_thread_budget(std::size_t requested_workers,
                                   std::size_t requested_learner_threads,
                                   std::size_t hardware_threads) noexcept;

class AsyncTrainer {
 public:
  /// Throws std::invalid_argument when obs_dim, episodes_per_update or
  /// episode_factory is missing.
  explicit AsyncTrainer(AsyncTrainerConfig config);

  /// Runs the full async training loop on `net` (updated in place),
  /// blocking until `config.updates` learner steps have been applied.
  /// Spawns the workers, runs the learner on the calling thread, joins the
  /// workers before returning. Worker exceptions stop the run and rethrow
  /// here.
  AsyncTrainStats run(ActorCritic& net, const AsyncProgressFn& progress = nullptr);

  const AsyncTrainerConfig& config() const noexcept { return config_; }

 private:
  AsyncTrainerConfig config_;
};

}  // namespace dosc::rl
