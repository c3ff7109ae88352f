#include "rl/async_trainer.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nn/parallel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/epoch_published.hpp"
#include "util/spsc_queue.hpp"
#include "util/timer.hpp"

namespace dosc::rl {

ThreadBudget resolve_thread_budget(std::size_t requested_workers,
                                   std::size_t requested_learner_threads,
                                   std::size_t hardware_threads) noexcept {
  ThreadBudget budget;
  if (hardware_threads == 0) hardware_threads = 1;
  budget.workers = std::max<std::size_t>(1, requested_workers);
  const std::size_t leftover =
      (hardware_threads > budget.workers) ? hardware_threads - budget.workers : 1;
  if (requested_learner_threads == 0) {
    budget.learner_threads = leftover;
  } else {
    // Oversubscription guard: an explicit request never pushes the total
    // past the machine (floor of 1 per side).
    budget.learner_threads = std::min(requested_learner_threads, leftover);
  }
  return budget;
}

namespace {

/// One completed episode in flight from a worker to the learner. Chunks are
/// recycled through a paired return queue, so at steady state the batch
/// storage (obs matrix, action/return/logp vectors) cycles between the two
/// threads without touching the allocator.
struct Chunk {
  Batch batch;
  std::uint64_t version = 0;  ///< snapshot version the episode ran under
  double episode_reward = 0.0;
  std::size_t episode = 0;
  std::size_t worker = 0;
};

std::uint64_t default_merge_seed(std::size_t update) noexcept {
  std::uint64_t h = 0x6D6F6E6F746F6E65ULL + update;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace

AsyncTrainer::AsyncTrainer(AsyncTrainerConfig config) : config_(std::move(config)) {
  if (config_.obs_dim == 0) {
    throw std::invalid_argument("AsyncTrainer: obs_dim must be set");
  }
  if (config_.episodes_per_update == 0) {
    throw std::invalid_argument("AsyncTrainer: episodes_per_update must be > 0");
  }
  if (!config_.episode_factory) {
    throw std::invalid_argument("AsyncTrainer: episode_factory required");
  }
}

AsyncTrainStats AsyncTrainer::run(ActorCritic& net, const AsyncProgressFn& progress) {
  const ThreadBudget budget = resolve_thread_budget(
      config_.num_workers, config_.learner_threads, std::thread::hardware_concurrency());
  const std::size_t num_workers = budget.workers;
  const std::size_t per_update = config_.episodes_per_update;
  const std::size_t total_episodes = config_.updates * per_update;

  // Workers run their rounds' decision forwards on their own threads; the
  // GEMM pool belongs to the learner for the whole run — the budgets
  // partition, never overlap.
  nn::ComputeThreadsGuard learner_guard(budget.learner_threads);

  util::EpochPublished<PolicySnapshot> store;
  {
    auto initial = std::make_unique<PolicySnapshot>();
    initial->parameters = net.get_parameters();
    initial->version = 0;
    store.publish(std::move(initial));
  }
  // Mirrors the published snapshot's version; workers gate on this plain
  // atomic instead of pinning a snapshot just to read one integer.
  std::atomic<std::uint64_t> published_version{0};
  std::atomic<std::size_t> episode_tickets{0};
  std::atomic<bool> stop{false};

  std::vector<std::unique_ptr<util::SpscQueue<Chunk>>> work_queues;
  std::vector<std::unique_ptr<util::SpscQueue<Chunk>>> recycle_queues;
  work_queues.reserve(num_workers);
  recycle_queues.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    work_queues.push_back(std::make_unique<util::SpscQueue<Chunk>>(config_.queue_capacity));
    // One extra round of slack: the learner can return a full update window
    // of chunks before the worker pops any.
    recycle_queues.push_back(
        std::make_unique<util::SpscQueue<Chunk>>(config_.queue_capacity + per_update));
  }
  std::vector<std::exception_ptr> worker_errors(num_workers);

  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  if (telemetry::enabled()) {
    registry.gauge("train.async.workers").set(static_cast<double>(num_workers));
    registry.gauge("train.async.learner_threads")
        .set(static_cast<double>(budget.learner_threads));
  }

  const std::size_t envs_per_worker = std::max<std::size_t>(1, config_.envs_per_worker);
  // Round accounting: episodes delivered per staleness-gate pass, reported
  // as AsyncTrainStats::mean_envs_per_round.
  std::atomic<std::size_t> claim_rounds{0};
  std::atomic<std::size_t> claimed_episodes{0};

  auto worker_fn = [&](std::size_t w) {
    try {
      // One trajectory buffer per in-flight episode, a reused driver, and
      // the per-round ticket / environment lists.
      ActorCritic local(net.config());
      BatchedRollout driver(local.actor(), config_.obs_dim);
      std::vector<TrajectoryBuffer> buffers;
      for (std::size_t i = 0; i < envs_per_worker; ++i) {
        buffers.emplace_back(config_.gamma);
        if (config_.reserve_flows > 0 && config_.reserve_steps_per_flow > 0) {
          buffers.back().reserve(config_.reserve_flows, config_.reserve_steps_per_flow,
                                 config_.obs_dim);
        }
      }
      std::vector<std::size_t> tickets;
      std::vector<std::unique_ptr<RolloutEpisode>> round_envs;
      std::vector<BatchedEnv*> env_ptrs;
      std::uint64_t applied_version = 0;
      bool have_params = false;
      for (;;) {
        if (stop.load(std::memory_order_acquire)) return;
        const std::size_t episode =
            episode_tickets.fetch_add(1, std::memory_order_relaxed);
        if (episode >= total_episodes) return;
        // Staleness gate: episode g feeds update g / l, which must start at
        // most max_staleness versions ahead of the snapshot we roll under.
        const std::size_t consuming_update = episode / per_update;
        const std::uint64_t required_version =
            (consuming_update > config_.max_staleness)
                ? static_cast<std::uint64_t>(consuming_update - config_.max_staleness)
                : 0;
        bool waited = false;
        while (published_version.load(std::memory_order_acquire) < required_version) {
          if (stop.load(std::memory_order_acquire)) return;
          waited = true;
          std::this_thread::yield();
        }
        if (waited && telemetry::enabled()) {
          registry.counter("train.async.gate_waits").add(1);
        }
        std::uint64_t version_used = 0;
        {
          const auto snapshot = store.acquire();  // never null: published above
          if (!have_params || snapshot->version != applied_version) {
            local.set_parameters(snapshot->parameters);
            applied_version = snapshot->version;
            have_params = true;
          }
          version_used = snapshot->version;
        }
        // The blocking gate above covered only the round's first ticket;
        // further tickets are claimed opportunistically, and only while
        // their own gate already passes. Blocking for a later ticket's gate
        // while holding earlier unrolled tickets would deadlock the
        // lockstep configuration (the learner needs exactly those chunks to
        // publish the version being waited for).
        tickets.clear();
        tickets.push_back(episode);
        while (tickets.size() < envs_per_worker) {
          std::size_t next_ticket = episode_tickets.load(std::memory_order_relaxed);
          if (next_ticket >= total_episodes) break;
          const std::size_t next_update = next_ticket / per_update;
          const std::uint64_t next_required =
              (next_update > config_.max_staleness)
                  ? static_cast<std::uint64_t>(next_update - config_.max_staleness)
                  : 0;
          if (published_version.load(std::memory_order_acquire) < next_required) break;
          if (episode_tickets.compare_exchange_weak(next_ticket, next_ticket + 1,
                                                    std::memory_order_relaxed)) {
            tickets.push_back(next_ticket);
          }
        }
        claim_rounds.fetch_add(1, std::memory_order_relaxed);
        claimed_episodes.fetch_add(tickets.size(), std::memory_order_relaxed);
        round_envs.clear();
        env_ptrs.clear();
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          round_envs.push_back(
              config_.episode_factory(w, tickets[i], local, buffers[i]));
          env_ptrs.push_back(round_envs[i].get());
        }
        driver.run(env_ptrs);
        // Push in ticket order: a single worker's FIFO then carries the
        // synchronous env order at every width.
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          const double episode_reward = round_envs[i]->finish();
          buffers[i].truncate_all();
          Chunk chunk;
          recycle_queues[w]->try_pop(chunk);  // reuse returned storage if any
          buffers[i].drain_into(chunk.batch, local, config_.obs_dim,
                                /*with_behavior_logp=*/true);
          chunk.version = version_used;
          chunk.episode_reward = episode_reward;
          chunk.episode = tickets[i];
          chunk.worker = w;
          bool queue_waited = false;
          while (!work_queues[w]->try_push(chunk)) {
            if (stop.load(std::memory_order_acquire)) return;
            queue_waited = true;
            std::this_thread::yield();
          }
          if (telemetry::enabled()) {
            registry.counter("train.async.episodes").add(1);
            if (queue_waited) registry.counter("train.async.queue_full_waits").add(1);
          }
        }
        round_envs.clear();  // destroy the round's simulators before the next claim
      }
    } catch (...) {
      worker_errors[w] = std::current_exception();
      stop.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) workers.emplace_back(worker_fn, w);

  AsyncTrainStats totals;
  totals.workers = num_workers;
  totals.learner_threads = budget.learner_threads;
  double staleness_total = 0.0;

  const auto join_workers = [&] {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
  };

  try {
    Updater updater(config_.updater);
    std::vector<Chunk> round(per_update);
    std::vector<Batch> round_batches(per_update);
    Batch merged;
    for (std::size_t update = 0; update < config_.updates; ++update) {
      // Collect exactly one window of chunks, in arrival order across the
      // worker queues (a single worker's FIFO preserves episode order, so
      // the lockstep configuration sees the synchronous env order).
      std::size_t collected = 0;
      const util::Timer wait_timer;
      while (collected < per_update) {
        if (stop.load(std::memory_order_acquire)) break;
        bool any = false;
        for (std::size_t w = 0; w < num_workers && collected < per_update; ++w) {
          while (collected < per_update && work_queues[w]->try_pop(round[collected])) {
            ++collected;
            any = true;
          }
        }
        if (!any) std::this_thread::yield();
      }
      if (collected < per_update) break;  // a worker died; rethrow below
      if (telemetry::enabled()) {
        registry.observe("train.async.learner_wait_ms", wait_timer.elapsed_millis());
      }

      const std::uint64_t current_version = updater.updates_done();
      bool all_fresh = true;
      double round_staleness = 0.0;
      double round_reward = 0.0;
      for (std::size_t i = 0; i < per_update; ++i) {
        std::swap(round[i].batch, round_batches[i]);
        const double staleness =
            static_cast<double>(current_version - round[i].version);
        round_staleness += staleness;
        round_reward += round[i].episode_reward;
        if (round[i].version != current_version) all_fresh = false;
      }
      if (all_fresh) {
        // Every chunk was rolled out under the current parameters: drop the
        // behavior log-probs entirely so the Updater takes the on-policy
        // code path verbatim (this is the bit-identity hinge).
        for (Batch& b : round_batches) b.behavior_logp.clear();
      } else {
        // Mixed window: fresh chunks keep weight exactly 1 via the NaN
        // marker; stale chunks keep their recorded log-probs for the
        // clipped-IS correction.
        for (std::size_t i = 0; i < per_update; ++i) {
          if (round[i].version == current_version) {
            std::fill(round_batches[i].behavior_logp.begin(),
                      round_batches[i].behavior_logp.end(),
                      std::numeric_limits<double>::quiet_NaN());
          }
        }
      }

      const std::uint64_t seed = config_.merge_seed ? config_.merge_seed(update)
                                                    : default_merge_seed(update);
      util::Rng sample_rng(seed);
      merge_batches_into(merged, round_batches, config_.obs_dim,
                         config_.max_update_steps, sample_rng);

      UpdateStats stats;
      {
        DOSC_TRACE_SCOPE("train", "async_update");
        const util::Timer update_timer;
        stats = updater.update(net, merged);
        if (telemetry::enabled()) {
          registry.observe("train.async.update_ms", update_timer.elapsed_millis());
          registry.counter("train.async.updates").add(1);
          registry.counter("train.async.env_steps").add(merged.size());
          registry.observe("train.async.staleness",
                           round_staleness / static_cast<double>(per_update));
          registry.gauge("train.async.mean_is_weight").set(stats.mean_is_weight);
        }
      }

      auto snapshot = std::make_unique<PolicySnapshot>();
      snapshot->parameters = net.get_parameters();
      snapshot->version = updater.updates_done();
      store.publish(std::move(snapshot));
      published_version.store(updater.updates_done(), std::memory_order_release);

      totals.updates = updater.updates_done();
      totals.episodes += per_update;
      totals.env_steps += merged.size();
      staleness_total += round_staleness;

      for (std::size_t i = 0; i < per_update; ++i) {
        std::swap(round[i].batch, round_batches[i]);
        Chunk& chunk = round[i];
        const std::size_t origin = chunk.worker;
        recycle_queues[origin]->try_push(chunk);  // on a full queue: just free it
      }

      if (progress) {
        AsyncProgress p;
        p.update = update;
        p.mean_episode_reward = round_reward / static_cast<double>(per_update);
        p.mean_staleness = round_staleness / static_cast<double>(per_update);
        p.stats = stats;
        progress(p);
      }
    }
  } catch (...) {
    join_workers();
    throw;
  }

  join_workers();
  for (const std::exception_ptr& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }
  if (totals.updates < config_.updates) {
    // Workers all exited cleanly yet the learner starved — only possible if
    // the configuration was inconsistent; report rather than hang.
    throw std::runtime_error("AsyncTrainer: learner starved before completing updates");
  }
  totals.mean_staleness =
      totals.episodes > 0 ? staleness_total / static_cast<double>(totals.episodes) : 0.0;
  const std::size_t rounds = claim_rounds.load(std::memory_order_relaxed);
  totals.mean_envs_per_round =
      rounds > 0 ? static_cast<double>(claimed_episodes.load(std::memory_order_relaxed)) /
                       static_cast<double>(rounds)
                 : 0.0;
  return totals;
}

}  // namespace dosc::rl
