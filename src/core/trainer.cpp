#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/batched_episode.hpp"
#include "nn/parallel.hpp"
#include "rl/batched_rollout.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"
#include "util/workers.hpp"

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

}  // namespace

void train_seed(rl::ActorCritic& net, const TrainingConfig& config, std::size_t obs_dim,
                std::size_t seed_index, const IterationRollout& rollout,
                const ProgressCallback& progress) {
  rl::Updater updater(config.updater);
  std::vector<rl::TrajectoryBuffer> buffers;
  for (std::size_t e = 0; e < config.parallel_envs; ++e) buffers.emplace_back(config.gamma);
  std::vector<rl::Batch> batches(config.parallel_envs);
  std::vector<double> episode_rewards(config.parallel_envs, 0.0);
  rl::Batch merged;
  for (std::size_t iteration = 0; iteration < config.iterations; ++iteration) {
    {
      DOSC_TRACE_SCOPE("train", "rollout");
      const util::Timer rollout_timer;
      rollout(iteration, buffers, episode_rewards);
      std::size_t total_steps = 0;
      for (std::size_t e = 0; e < config.parallel_envs; ++e) {
        buffers[e].truncate_all();
        buffers[e].drain_into(batches[e], net, obs_dim);
        total_steps += batches[e].size();
      }
      if (telemetry::enabled()) {
        const double rollout_s = rollout_timer.elapsed_seconds();
        telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
        registry.observe("train.rollout_ms", rollout_s * 1e3);
        registry.counter("train.env_steps").add(total_steps);
        if (rollout_s > 0.0) {
          registry.observe("train.env_steps_per_s", static_cast<double>(total_steps) / rollout_s);
        }
      }
    }

    // Merge the env batches; cap the update size with a uniform subsample
    // so one update's cost stays bounded regardless of episode length.
    util::Rng sample_rng(episode_seed(config.seed_base, seed_index, iteration, 777));
    rl::merge_batches_into(merged, batches, obs_dim, TrainingConfig::max_update_steps,
                           sample_rng);

    double mean_reward = 0.0;
    for (const double r : episode_rewards) mean_reward += r;
    mean_reward /= static_cast<double>(config.parallel_envs);
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
        registry.gauge("train.mean_episode_reward").set(mean_reward);
      }
    }
    if (progress) progress({seed_index, iteration, mean_reward, stats});
  }
}

EvalResult evaluate_policy(const sim::Scenario& scenario, const rl::ActorCritic& policy,
                           const RewardConfig& reward, std::size_t episodes,
                           double episode_time, std::uint64_t seed_base, ObservationMask mask,
                           std::size_t parallel_episodes, std::size_t batch_envs) {
  const sim::Scenario eval_scenario = scenario.with_end_time(episode_time);
  const std::size_t max_degree = scenario.network().max_degree();
  std::vector<EpisodeResult> per_episode(episodes);
  if (parallel_episodes == 0) parallel_episodes = nn::compute_threads();
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
  // Workers fill only their own claims' result slots, so no cross-thread
  // state is touched during a run.
  const std::size_t claim_units = (episodes + width - 1) / width;
  util::run_workers(std::min(parallel_episodes, claim_units), [&](std::size_t) { run_claims(); });

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

TrainedPolicy train_best_seed(const sim::Scenario& scenario, const TrainingConfig& config,
                              std::size_t obs_dim, std::size_t num_actions,
                              const SeedTrainer& train, const SeedEvaluator& evaluate) {
  if (config.parallel_envs == 0 || config.num_seeds == 0) {
    throw std::invalid_argument("TrainingConfig: num_seeds and parallel_envs must be > 0");
  }
  TrainedPolicy best;
  best.max_degree = scenario.network().max_degree();
  best.per_seed_success.assign(config.num_seeds, 0.0);
  best.eval_success_ratio = -1.0;
  double best_reward = -1e300;
  std::size_t best_seed = config.num_seeds;
  std::mutex best_mu;

  // One seed's training, evaluation and fold into the best. A seed's result
  // depends only on its index, and the fold keeps the maximum of a total
  // order (success ratio, then mean reward, then the lower seed index), so
  // the deployed policy does not depend on which seed finishes first.
  const auto run_one = [&](std::size_t seed_index) {
    rl::ActorCriticConfig net_config;
    net_config.obs_dim = obs_dim;
    net_config.num_actions = num_actions;
    net_config.hidden = config.hidden;
    net_config.seed = config.seed_base + seed_index;
    rl::ActorCritic net(net_config);
    train(net, seed_index);

    // Greedy evaluation; the best seed's network is deployed (Alg. 1 l.13).
    const EvalResult eval = evaluate(net, /*seed_base=*/9000 + seed_index);
    const std::lock_guard<std::mutex> lock(best_mu);
    best.per_seed_success[seed_index] = eval.success_ratio;
    const bool better = eval.success_ratio > best.eval_success_ratio ||
                        (eval.success_ratio == best.eval_success_ratio &&
                         (eval.mean_reward > best_reward ||
                          (eval.mean_reward == best_reward && seed_index < best_seed)));
    if (better) {
      best.net_config = net_config;
      best.parameters = net.get_parameters();
      best.eval_success_ratio = eval.success_ratio;
      best.eval_reward = eval.mean_reward;
      best_reward = eval.mean_reward;
      best_seed = seed_index;
    }
  };
  // Workers claim seed indices off one counter; at one worker the seeds run
  // in index order on the calling thread.
  std::atomic<std::size_t> next_seed{0};
  util::run_workers(seed_workers(config.num_seeds), [&](std::size_t) {
    try {
      for (std::size_t i = next_seed++; i < config.num_seeds; i = next_seed++) run_one(i);
    } catch (...) {
      next_seed = config.num_seeds;  // no worker claims another seed
      throw;
    }
  });
  return best;
}

std::size_t seed_workers(std::size_t num_seeds) noexcept {
  return std::min(nn::compute_threads(), num_seeds);
}

TrainedPolicy train_distributed_policy(const sim::Scenario& scenario,
                                       const TrainingConfig& config,
                                       const ProgressCallback& progress) {
  const std::size_t max_degree = scenario.network().max_degree();
  const std::size_t obs_dim = observation_dim(max_degree);
  const sim::Scenario train_scenario = scenario.with_end_time(config.train_episode_time);
  // Seeds train concurrently; the caller's callback sees one call at a time.
  std::mutex progress_mu;
  ProgressCallback serialised;
  if (progress) {
    serialised = [&](const TrainingProgress& p) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      progress(p);
    };
  }
  return train_best_seed(
      scenario, config, obs_dim, /*num_actions=*/max_degree + 1,
      [&](rl::ActorCritic& net, std::size_t seed_index) {
        // The l environments advance together through one driver, so their
        // decision forwards fuse into one predict_batch; each env has its
        // own rng stream and buffer.
        rl::BatchedRollout driver(net.actor(), obs_dim);
        std::vector<std::unique_ptr<TrainingEpisode>> episodes;
        std::vector<rl::BatchedEnv*> envs;
        const auto rollout = [&](std::size_t iteration, std::span<rl::TrajectoryBuffer> buffers,
                                 std::span<double> episode_rewards) {
          envs.clear();
          for (std::size_t e = 0; e < buffers.size(); ++e) {
            episodes.push_back(std::make_unique<TrainingEpisode>(
                train_scenario, episode_seed(config.seed_base, seed_index, iteration, e), net,
                buffers[e], config.reward, max_degree, config.observation_mask));
            envs.push_back(episodes.back().get());
          }
          driver.run(envs);
          for (std::size_t e = 0; e < buffers.size(); ++e) {
            episode_rewards[e] = episodes[e]->finish();
          }
          episodes.clear();  // free the simulators before the update
        };
        train_seed(net, config, obs_dim, seed_index, rollout, serialised);
      },
      [&](const rl::ActorCritic& net, std::uint64_t seed_base) {
        return evaluate_policy(scenario, net, config.reward, config.eval_episodes,
                               config.eval_episode_time, seed_base, config.observation_mask);
      });
}

}  // namespace dosc::core
