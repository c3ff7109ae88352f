// Training throughput benchmark: decoupled async actor/learner vs the
// synchronous barrier trainer.
//
// Three sections, all landing in BENCH_train_async.json ("dosc.bench.v1"):
//
//  1. Sync baseline: the synchronous trainer's inner loop (l episodes
//     through one rl::BatchedRollout -> merge -> update, no eval) timed end
//     to end. Reports env_steps/s and updates/s — the denominator for every
//     speedup below.
//  2. Async worker sweep (1/2/4/8 persistent rollout workers): the same
//     episode workload through rl::AsyncTrainer — lock-free SPSC chunk
//     queues, epoch-published snapshots, clipped-IS staleness correction;
//     each worker drives its episodes through its own BatchedRollout.
//     Reports env_steps/s, updates/s, mean snapshot staleness at
//     consumption, and speedup over the sync baseline.
//  3. Thread budget: what resolve_thread_budget hands each sweep point on
//     this machine, so the JSON records whether workers were oversubscribed
//     (on a 1-core container the 8-worker point measures scheduling
//     overhead, not scale-out — see EXPERIMENTS.md).
//
// Lockstep bit-parity with the synchronous trainer is pinned in ctest
// (AsyncTrainer.LockstepOneWorkerIsBitIdenticalToSyncTrainer and
// AsyncTrainer.BatchedWorkerLockstepBitIdenticalToSequentialWorker).
//
// DOSC_BENCH_SMOKE=1 (CI) shortens horizons but exercises every section.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/batched_episode.hpp"
#include "core/drl_env.hpp"
#include "core/observation.hpp"
#include "core/trainer.hpp"
#include "rl/async_trainer.hpp"
#include "rl/rollout.hpp"
#include "rl/updater.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace dosc;

namespace {

bool smoke() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_BENCH_SMOKE");
    return env != nullptr && std::string_view(env) != "0";
  }();
  return on;
}

double episode_time() { return smoke() ? 300.0 : 1000.0; }
std::size_t bench_updates() { return smoke() ? 4 : 30; }
constexpr std::size_t kEpisodesPerUpdate = 4;
constexpr std::uint64_t kSeedBase = 20260807;

sim::Scenario bench_scenario() {
  return sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene",
                                 episode_time());
}

rl::ActorCriticConfig net_config(const sim::Scenario& scenario) {
  rl::ActorCriticConfig config;
  config.obs_dim = core::observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.network().max_degree() + 1;
  config.hidden = {64, 64};
  config.seed = 9;
  return config;
}

/// One training episode on the synchronous trainer's (iteration, env) seed
/// grid, so sync and async runs consume identical workloads.
std::unique_ptr<core::TrainingEpisode> make_episode(const sim::Scenario& scenario,
                                                    const rl::ActorCritic& policy,
                                                    rl::TrajectoryBuffer& buffer,
                                                    std::size_t episode,
                                                    bool record_behavior_logp) {
  const std::uint64_t es = core::episode_seed(kSeedBase, 0, episode / kEpisodesPerUpdate,
                                              episode % kEpisodesPerUpdate);
  return std::make_unique<core::TrainingEpisode>(scenario, es, policy, buffer,
                                                 core::RewardConfig{},
                                                 scenario.network().max_degree(),
                                                 core::ObservationMask{},
                                                 record_behavior_logp);
}

struct ThroughputResult {
  std::size_t env_steps = 0;
  std::size_t updates = 0;
  double wall_ms = 0.0;
  double mean_staleness = 0.0;
  std::size_t workers = 0;
  std::size_t learner_threads = 0;
  double mean_envs_per_round = 0.0;  ///< batched worker mode only
  double steps_per_sec() const { return wall_ms > 0.0 ? 1000.0 * env_steps / wall_ms : 0.0; }
  double updates_per_sec() const { return wall_ms > 0.0 ? 1000.0 * updates / wall_ms : 0.0; }
};

/// The synchronous trainer's inner loop without eval: l episodes per
/// update, driven together through one BatchedRollout, merged and fed to
/// the Updater — the baseline the async trainer must beat.
ThroughputResult run_sync(const sim::Scenario& scenario) {
  rl::ActorCritic net(net_config(scenario));
  rl::Updater updater{rl::UpdaterConfig{}};
  const std::size_t obs_dim = net.config().obs_dim;
  rl::BatchedRollout driver(net.actor(), obs_dim);
  std::vector<rl::TrajectoryBuffer> buffers;
  std::vector<rl::Batch> batches(kEpisodesPerUpdate);
  for (std::size_t e = 0; e < kEpisodesPerUpdate; ++e) buffers.emplace_back(0.99);
  std::vector<std::unique_ptr<core::TrainingEpisode>> episodes;
  std::vector<rl::BatchedEnv*> envs;
  rl::Batch merged;
  ThroughputResult result;
  result.workers = 1;
  result.learner_threads = 1;
  const util::Timer timer;
  for (std::size_t update = 0; update < bench_updates(); ++update) {
    envs.clear();
    for (std::size_t e = 0; e < kEpisodesPerUpdate; ++e) {
      episodes.push_back(make_episode(scenario, net, buffers[e],
                                      update * kEpisodesPerUpdate + e,
                                      /*record_behavior_logp=*/false));
      envs.push_back(episodes.back().get());
    }
    driver.run(envs);
    for (std::size_t e = 0; e < kEpisodesPerUpdate; ++e) {
      episodes[e]->finish();
      buffers[e].truncate_all();
      buffers[e].drain_into(batches[e], net, obs_dim);
      result.env_steps += batches[e].size();
    }
    episodes.clear();
    util::Rng merge_rng(core::episode_seed(kSeedBase, 0, update, 777));
    rl::merge_batches_into(merged, batches, obs_dim, 4096, merge_rng);
    updater.update(net, merged);
    ++result.updates;
  }
  result.wall_ms = timer.elapsed_micros() / 1000.0;
  return result;
}

ThroughputResult run_async(const sim::Scenario& scenario, std::size_t workers,
                           std::size_t envs_per_worker = 1) {
  rl::ActorCritic net(net_config(scenario));
  rl::AsyncTrainerConfig config;
  config.num_workers = workers;
  config.episodes_per_update = kEpisodesPerUpdate;
  config.updates = bench_updates();
  config.max_update_steps = 4096;
  config.queue_capacity = 8;
  config.max_staleness = 1;
  config.obs_dim = net.config().obs_dim;
  config.gamma = 0.99;
  config.reserve_flows = 512;
  config.reserve_steps_per_flow = 32;
  config.merge_seed = [](std::size_t update) {
    return core::episode_seed(kSeedBase, 0, update, 777);
  };
  config.envs_per_worker = envs_per_worker;
  config.episode_factory = [&scenario](std::size_t, std::size_t episode,
                                       const rl::ActorCritic& policy,
                                       rl::TrajectoryBuffer& buffer)
      -> std::unique_ptr<rl::RolloutEpisode> {
    return make_episode(scenario, policy, buffer, episode, /*record_behavior_logp=*/true);
  };
  rl::AsyncTrainer trainer(std::move(config));
  const util::Timer timer;
  const rl::AsyncTrainStats stats = trainer.run(net);
  ThroughputResult result;
  result.wall_ms = timer.elapsed_micros() / 1000.0;
  result.env_steps = stats.env_steps;
  result.updates = stats.updates;
  result.mean_staleness = stats.mean_staleness;
  result.workers = stats.workers;
  result.learner_threads = stats.learner_threads;
  result.mean_envs_per_round = stats.mean_envs_per_round;
  return result;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("bench_train_async (%s horizon, %u hardware threads)\n",
              smoke() ? "smoke" : "full", hw);
  const sim::Scenario scenario = bench_scenario();
  util::Json::Array entries;

  // ---- Section 1: sync baseline ----------------------------------------
  const ThroughputResult sync_result = run_sync(scenario);
  std::printf("%-12s %8s %8s %12s %11s %10s %8s\n", "mode", "workers", "learner",
              "env_steps/s", "updates/s", "staleness", "speedup");
  std::printf("%-12s %8zu %8zu %12.0f %11.2f %10s %8s\n", "sync", sync_result.workers,
              sync_result.learner_threads, sync_result.steps_per_sec(),
              sync_result.updates_per_sec(), "-", "1.00x");
  entries.push_back(util::Json(util::Json::Object{
      {"kind", util::Json(std::string("sync_baseline"))},
      {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
      {"updates", util::Json(sync_result.updates)},
      {"env_steps", util::Json(sync_result.env_steps)},
      {"wall_ms", util::Json(sync_result.wall_ms)},
      {"env_steps_per_sec", util::Json(sync_result.steps_per_sec())},
      {"updates_per_sec", util::Json(sync_result.updates_per_sec())},
  }));

  // ---- Section 2: async worker sweep -----------------------------------
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const ThroughputResult r = run_async(scenario, workers);
    const double speedup =
        sync_result.steps_per_sec() > 0.0 ? r.steps_per_sec() / sync_result.steps_per_sec()
                                          : 0.0;
    std::printf("%-12s %8zu %8zu %12.0f %11.2f %10.2f %7.2fx\n", "async", r.workers,
                r.learner_threads, r.steps_per_sec(), r.updates_per_sec(),
                r.mean_staleness, speedup);
    // True oversubscription only: more than one worker AND the resolved
    // partition does not fit the machine. The 1-worker point on a 1-core
    // host runs the minimum viable worker+learner pair — timeshared, but
    // not an oversubscribed sweep point.
    const rl::ThreadBudget budget = rl::resolve_thread_budget(workers, 0, hw);
    const bool oversubscribed =
        hw > 0 && budget.workers > 1 && budget.workers + budget.learner_threads > hw;
    entries.push_back(util::Json(util::Json::Object{
        {"kind", util::Json(std::string("async_sweep"))},
        {"requested_workers", util::Json(workers)},
        {"workers", util::Json(r.workers)},
        {"learner_threads", util::Json(r.learner_threads)},
        {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
        {"oversubscribed", util::Json(oversubscribed)},
        {"updates", util::Json(r.updates)},
        {"env_steps", util::Json(r.env_steps)},
        {"wall_ms", util::Json(r.wall_ms)},
        {"env_steps_per_sec", util::Json(r.steps_per_sec())},
        {"updates_per_sec", util::Json(r.updates_per_sec())},
        {"mean_staleness", util::Json(r.mean_staleness)},
        {"speedup_vs_sync", util::Json(speedup)},
    }));
  }

  // ---- Section 2b: batched workers (envs_per_worker sweep) --------------
  // Each worker drives B concurrent envs through fused forwards; the
  // mean_envs_per_round column shows how many episodes one staleness-gate
  // pass delivered — the larger merged update windows the batched mode
  // exists to produce.
  for (const std::size_t envs : {2u, 4u, 8u}) {
    const ThroughputResult r = run_async(scenario, /*workers=*/1, envs);
    const double speedup =
        sync_result.steps_per_sec() > 0.0 ? r.steps_per_sec() / sync_result.steps_per_sec()
                                          : 0.0;
    std::printf("%-12s %8zu %8zu %12.0f %11.2f %10.2f %7.2fx  (B=%zu, %.2f envs/round)\n",
                "async_batch", r.workers, r.learner_threads, r.steps_per_sec(),
                r.updates_per_sec(), r.mean_staleness, speedup, envs, r.mean_envs_per_round);
    entries.push_back(util::Json(util::Json::Object{
        {"kind", util::Json(std::string("async_batched_sweep"))},
        {"envs_per_worker", util::Json(envs)},
        {"workers", util::Json(r.workers)},
        {"learner_threads", util::Json(r.learner_threads)},
        {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
        {"mean_envs_per_round", util::Json(r.mean_envs_per_round)},
        {"updates", util::Json(r.updates)},
        {"env_steps", util::Json(r.env_steps)},
        {"wall_ms", util::Json(r.wall_ms)},
        {"env_steps_per_sec", util::Json(r.steps_per_sec())},
        {"updates_per_sec", util::Json(r.updates_per_sec())},
        {"mean_staleness", util::Json(r.mean_staleness)},
        {"speedup_vs_sync", util::Json(speedup)},
    }));
  }

  const util::Json doc(util::Json::Object{
      {"schema", util::Json("dosc.bench.v1")},
      {"benchmark", util::Json("train_async")},
      {"smoke", util::Json(smoke())},
      {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
      {"results", util::Json(std::move(entries))},
  });
  const std::string path = "BENCH_train_async.json";
  doc.save_file(path, 2);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
