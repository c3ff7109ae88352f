#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/batched_episode.hpp"
#include "nn/parallel.hpp"
#include "rl/batched_rollout.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace dosc::core {

TrainingConfig TrainingConfig::paper_scale() {
  TrainingConfig config;
  config.hidden = {256, 256};
  config.num_seeds = 10;
  config.parallel_envs = 4;
  config.iterations = 300;
  config.train_episode_time = 5000.0;
  config.eval_episodes = 5;
  config.eval_episode_time = 20000.0;
  return config;
}

rl::ActorCritic TrainedPolicy::instantiate() const {
  rl::ActorCritic net(net_config);
  net.set_parameters(parameters);
  return net;
}

std::uint64_t episode_seed(std::uint64_t base, std::size_t seed_index, std::size_t iteration,
                           std::size_t env_index) noexcept {
  std::uint64_t h = base;
  h = h * 0x9E3779B97F4A7C15ULL + seed_index + 1;
  h = h * 0xBF58476D1CE4E5B9ULL + iteration + 1;
  h = h * 0x94D049BB133111EBULL + env_index + 1;
  return h ^ (h >> 31);
}

namespace {

/// Greedy evaluation outcome of one episode.
struct EpisodeResult {
  double success = 0.0;
  double reward = 0.0;
  double delay = 0.0;
  bool has_delay = false;
};

/// One in-flight slot of evaluate_policy's streaming driver. start() builds
/// a claimed episode in the slot; the advance_to_decision call that finds
/// it drained writes the episode's result and frees its simulator (the
/// driver makes no further call on a drained env), and the next claim
/// reuses the slot. A worker thus holds at most `batch_envs` simulators,
/// however many episodes it claims.
class EvalSlot final : public rl::BatchedEnv {
 public:
  EvalSlot(const sim::Scenario& scenario, const rl::ActorCritic& policy,
           const RewardConfig& reward, std::size_t max_degree, const ObservationMask& mask)
      : scenario_(scenario), policy_(policy), max_degree_(max_degree), mask_(mask),
        tally_(reward) {}

  bool busy() const noexcept { return episode_.has_value(); }

  void start(std::uint64_t seed, EpisodeResult& out) {
    coordinator_.emplace(policy_, max_degree_, /*stochastic=*/false, util::Rng(0), mask_);
    episode_.emplace(scenario_, seed, *coordinator_, *coordinator_, &tally_);
    tally_.start(episode_->simulator());
    out_ = &out;
  }

  bool advance_to_decision() override {
    if (episode_->advance_to_decision()) return true;
    const sim::SimMetrics metrics = episode_->finish();
    out_->success = metrics.success_ratio();
    out_->reward = tally_.episode_reward();
    out_->has_delay = metrics.e2e_delay.count() > 0;
    if (out_->has_delay) out_->delay = metrics.e2e_delay.mean();
    episode_.reset();
    coordinator_.reset();
    return false;
  }
  void write_observation(std::span<double> out) override { episode_->write_observation(out); }
  void apply_logits(std::span<const double> logits) override {
    episode_->apply_logits(logits);
  }

 private:
  const sim::Scenario& scenario_;
  const rl::ActorCritic& policy_;
  std::size_t max_degree_;
  const ObservationMask& mask_;
  RewardTally tally_;  ///< restarted for each claimed episode
  // Declared in dependency order, so destruction runs episode, coordinator.
  std::optional<DistributedDrlCoordinator> coordinator_;
  std::optional<YieldingEpisode> episode_;
  EpisodeResult* out_ = nullptr;
};

/// The overlapped schedule's rollout thread: persistent, handed one
/// iteration at a time. start() runs job(iteration) on the helper; wait()
/// blocks until it is done and rethrows anything it threw. The destructor
/// waits out a running job before joining, so no exit path leaves the
/// helper touching the caller's state.
class RolloutThread {
 public:
  explicit RolloutThread(std::function<void(std::size_t)> job)
      : job_(std::move(job)), thread_([this] { loop(); }) {}
  ~RolloutThread() {
    if (busy_) done_.acquire();
    stop_ = true;
    work_.release();
    thread_.join();
  }
  RolloutThread(const RolloutThread&) = delete;
  RolloutThread& operator=(const RolloutThread&) = delete;

  void start(std::size_t iteration) {
    iteration_ = iteration;
    busy_ = true;
    work_.release();
  }
  void wait() {
    done_.acquire();
    busy_ = false;
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  }

 private:
  void loop() {
    for (;;) {
      work_.acquire();
      if (stop_) return;
      try {
        job_(iteration_);
      } catch (...) {
        error_ = std::current_exception();
      }
      done_.release();
    }
  }

  // The semaphores order every plain member below between the two threads.
  std::function<void(std::size_t)> job_;
  std::binary_semaphore work_{0};
  std::binary_semaphore done_{0};
  std::size_t iteration_ = 0;
  std::exception_ptr error_;
  bool busy_ = false;  // calling thread only
  bool stop_ = false;
  std::thread thread_;  // last: starts once the members it reads exist
};

/// One iteration's rollout output: the l environments' trajectory buffers,
/// drained batches and episode rewards.
struct RolloutWindow {
  std::vector<rl::TrajectoryBuffer> buffers;
  std::vector<rl::Batch> batches;
  std::vector<double> episode_rewards;
};

/// One seed's training (Alg. 1): per iteration, the l environments roll out
/// the same policy for one episode each, then one ACKTR update runs on their
/// merged experience. With config.async the rollout of iteration i+1 runs on
/// a helper thread during update i (see TrainingConfig::async).
void run_seed(rl::ActorCritic& net, const TrainingConfig& config,
              const sim::Scenario& train_scenario, std::size_t max_degree, std::size_t obs_dim,
              std::size_t seed_index, const ProgressCallback& progress) {
  const bool overlap = config.async;
  rl::Updater updater(config.updater);
  // The overlapped rollout reads a parameter copy, refreshed only while the
  // helper is idle, so the update can write `net` meanwhile.
  std::optional<rl::ActorCritic> behavior;
  if (overlap) behavior.emplace(net);
  const rl::ActorCritic& policy = overlap ? *behavior : net;
  // The l environments advance together through one driver, so their
  // decision forwards fuse into one predict_batch; each env has its own rng
  // stream and buffer. Buffers and batches are reused across iterations,
  // double-buffered when overlapped so the helper and the update never
  // touch the same window.
  rl::BatchedRollout driver(policy.actor(), obs_dim);
  std::vector<RolloutWindow> windows(overlap ? 2 : 1);
  for (RolloutWindow& window : windows) {
    for (std::size_t e = 0; e < config.parallel_envs; ++e) {
      window.buffers.emplace_back(config.gamma);
    }
    window.batches.resize(config.parallel_envs);
    window.episode_rewards.assign(config.parallel_envs, 0.0);
  }
  std::vector<std::unique_ptr<TrainingEpisode>> episodes;
  std::vector<rl::BatchedEnv*> envs;
  const auto roll_out = [&](std::size_t iteration) {
    DOSC_TRACE_SCOPE("train", "rollout");
    const util::Timer rollout_timer;
    RolloutWindow& window = windows[iteration % windows.size()];
    envs.clear();
    for (std::size_t e = 0; e < config.parallel_envs; ++e) {
      episodes.push_back(std::make_unique<TrainingEpisode>(
          train_scenario, episode_seed(config.seed_base, seed_index, iteration, e), policy,
          window.buffers[e], config.reward, max_degree, config.observation_mask,
          /*record_behavior_logp=*/overlap));
      envs.push_back(episodes.back().get());
    }
    driver.run(envs);
    // Window 0 is rolled out under the parameters update 0 starts from: it
    // is fresh, so it drops its behavior log-probs and takes the on-policy
    // path. Every later window is one update stale.
    const bool stale = overlap && iteration > 0;
    std::size_t total_steps = 0;
    for (std::size_t e = 0; e < config.parallel_envs; ++e) {
      window.episode_rewards[e] = episodes[e]->finish();
      window.buffers[e].truncate_all();
      window.buffers[e].drain_into(window.batches[e], policy, obs_dim, stale);
      total_steps += window.batches[e].size();
    }
    episodes.clear();  // free the simulators before the update
    if (telemetry::enabled()) {
      const double rollout_s = rollout_timer.elapsed_seconds();
      telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
      registry.observe("train.rollout_ms", rollout_s * 1e3);
      registry.counter("train.env_steps").add(total_steps);
      if (rollout_s > 0.0) {
        registry.observe("train.env_steps_per_s", static_cast<double>(total_steps) / rollout_s);
      }
    }
  };
  std::optional<RolloutThread> helper;
  if (overlap && config.iterations > 1) helper.emplace(roll_out);

  rl::Batch merged;
  for (std::size_t iteration = 0; iteration < config.iterations; ++iteration) {
    // Overlapped, every iteration after the first was rolled out during the
    // previous update.
    if (!overlap || iteration == 0) roll_out(iteration);
    const RolloutWindow& window = windows[iteration % windows.size()];
    const bool handoff = overlap && iteration + 1 < config.iterations;
    // While the helper rolls out, the update's GEMMs leave it one core.
    std::optional<nn::ComputeThreadsGuard> split;
    if (handoff) {
      behavior->set_parameters(net.get_parameters());
      split.emplace(std::max<std::size_t>(1, nn::compute_threads() - 1));
      helper->start(iteration + 1);
    }

    // Merge the env batches; cap the update size with a uniform subsample
    // so one update's cost stays bounded regardless of episode length.
    util::Rng sample_rng(episode_seed(config.seed_base, seed_index, iteration, 777));
    rl::merge_batches_into(merged, window.batches, obs_dim, TrainingConfig::max_update_steps,
                           sample_rng);

    rl::UpdateStats stats;
    {
      DOSC_TRACE_SCOPE("train", "update");
      const util::Timer update_timer;
      stats = updater.update(net, merged);
      if (telemetry::enabled()) {
        telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
        registry.observe("train.update_ms", update_timer.elapsed_millis());
        registry.counter("train.updates").add(1);
        registry.counter("train.iterations").add(1);
        double reward_sum = 0.0;
        for (const double r : window.episode_rewards) reward_sum += r;
        registry.gauge("train.mean_episode_reward")
            .set(reward_sum / static_cast<double>(config.parallel_envs));
      }
    }
    if (progress) {
      double mean_reward = 0.0;
      for (const double r : window.episode_rewards) mean_reward += r;
      mean_reward /= static_cast<double>(config.parallel_envs);
      progress({seed_index, iteration, mean_reward, stats});
    }
    if (handoff) helper->wait();
  }
}

}  // namespace

EvalResult evaluate_policy(const sim::Scenario& scenario, const rl::ActorCritic& policy,
                           const RewardConfig& reward, std::size_t episodes,
                           double episode_time, std::uint64_t seed_base, ObservationMask mask,
                           std::size_t parallel_episodes, std::size_t batch_envs) {
  const sim::Scenario eval_scenario = scenario.with_end_time(episode_time);
  const std::size_t max_degree = scenario.network().max_degree();
  std::vector<EpisodeResult> per_episode(episodes);
  if (parallel_episodes == 0) parallel_episodes = std::thread::hardware_concurrency();
  const std::size_t width = std::max<std::size_t>(1, batch_envs);
  // Episodes are claimed one at a time off a shared counter. Each worker
  // streams its claims through one BatchedRollout that keeps `width`
  // episodes in flight, so the achieved GEMM width stays at the nominal
  // batch across episode boundaries instead of draining into a narrow tail;
  // at width 1 every decision takes the per-row GEMV fast path. Each
  // episode keeps its own simulator/coordinator/tally and greedy decisions
  // depend only on the episode's own logit row, so results (and event
  // digests) equal a sequential Simulator::run loop's bit for bit at any
  // width or claim interleaving.
  std::atomic<std::size_t> next_episode{0};
  const auto run_claims = [&] {
    std::vector<std::unique_ptr<EvalSlot>> slots;
    for (std::size_t i = 0; i < width; ++i) {
      slots.push_back(std::make_unique<EvalSlot>(eval_scenario, policy, reward, max_degree, mask));
    }
    const rl::BatchedEnvSource source = [&]() -> rl::BatchedEnv* {
      const std::size_t e = next_episode.fetch_add(1, std::memory_order_relaxed);
      if (e >= episodes) return nullptr;
      // The driver pulls only while fewer than `width` episodes are in
      // flight, so a free slot exists.
      EvalSlot& slot = **std::find_if(slots.begin(), slots.end(),
                                      [](const auto& s) { return !s->busy(); });
      slot.start(seed_base + e, per_episode[e]);
      return &slot;
    };
    rl::BatchedRollout driver(policy.actor(), policy.actor().input_size());
    driver.run(width, source);
  };
  const std::size_t claim_units = (episodes + width - 1) / width;
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(parallel_episodes, claim_units));
  if (workers <= 1) {
    run_claims();
  } else {
    // Workers fill only their own claims' result slots, so no cross-thread
    // state is touched during a run.
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        try {
          run_claims();
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  // Deterministic merge in ascending episode order: the RunningStats see the
  // exact update sequence of the sequential loop, so the result is
  // bit-identical at every parallelism level.
  EvalResult result;
  util::RunningStats success;
  util::RunningStats rewards;
  util::RunningStats delays;
  for (const EpisodeResult& ep : per_episode) {
    success.add(ep.success);
    rewards.add(ep.reward);
    if (ep.has_delay) delays.add(ep.delay);
  }
  result.success_ratio = success.mean();
  result.mean_reward = rewards.mean();
  result.mean_e2e_delay = delays.mean();
  return result;
}

TrainedPolicy train_distributed_policy(const sim::Scenario& scenario,
                                       const TrainingConfig& config,
                                       const ProgressCallback& progress) {
  if (config.parallel_envs == 0 || config.num_seeds == 0) {
    throw std::invalid_argument("train_distributed_policy: seeds/envs must be > 0");
  }
  const std::size_t max_degree = scenario.network().max_degree();
  const std::size_t obs_dim = observation_dim(max_degree);
  const std::size_t num_actions = max_degree + 1;
  const sim::Scenario train_scenario = scenario.with_end_time(config.train_episode_time);

  TrainedPolicy best;
  best.max_degree = max_degree;
  best.eval_success_ratio = -1.0;
  double best_reward = -1e300;

  for (std::size_t seed_index = 0; seed_index < config.num_seeds; ++seed_index) {
    rl::ActorCriticConfig net_config;
    net_config.obs_dim = obs_dim;
    net_config.num_actions = num_actions;
    net_config.hidden = config.hidden;
    net_config.seed = config.seed_base + seed_index;
    rl::ActorCritic net(net_config);
    run_seed(net, config, train_scenario, max_degree, obs_dim, seed_index, progress);

    // Greedy evaluation; the best seed's network is deployed (Alg. 1 l.13).
    const EvalResult eval =
        evaluate_policy(scenario, net, config.reward, config.eval_episodes,
                        config.eval_episode_time, /*seed_base=*/9000 + seed_index,
                        config.observation_mask);
    best.per_seed_success.push_back(eval.success_ratio);
    const bool better = eval.success_ratio > best.eval_success_ratio ||
                        (eval.success_ratio == best.eval_success_ratio &&
                         eval.mean_reward > best_reward);
    if (better) {
      best.net_config = net_config;
      best.parameters = net.get_parameters();
      best.eval_success_ratio = eval.success_ratio;
      best.eval_reward = eval.mean_reward;
      best_reward = eval.mean_reward;
    }
  }
  return best;
}

}  // namespace dosc::core
