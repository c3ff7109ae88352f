#include "rl/batched_rollout.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"

namespace dosc::rl {

namespace {
/// Achieved-batch-width histogram: widths are small integers (1..the env
/// count), so a tight range keeps the geometric buckets fine-grained there.
telemetry::HistogramConfig batch_rows_config() noexcept {
  return telemetry::HistogramConfig{1.0, 4096.0, 16};
}
}  // namespace

BatchedRollout::BatchedRollout(const nn::Mlp& actor, std::size_t obs_dim)
    : actor_(actor), obs_dim_(obs_dim) {
  if (obs_dim == 0 || actor.input_size() != obs_dim) {
    throw std::invalid_argument("BatchedRollout: actor input size != obs_dim");
  }
}

BatchedRolloutStats BatchedRollout::run(std::span<BatchedEnv* const> envs) {
  pending_.clear();
  for (BatchedEnv* env : envs) {
    if (env != nullptr && env->advance_to_decision()) pending_.push_back(env);
  }
  return drive(pending_.size(), nullptr);
}

BatchedRolloutStats BatchedRollout::run(std::size_t width, const BatchedEnvSource& source) {
  pending_.clear();
  return drive(std::max<std::size_t>(1, width), &source);
}

BatchedRolloutStats BatchedRollout::drive(std::size_t width, const BatchedEnvSource* source) {
  BatchedRolloutStats stats;
  const std::size_t out_dim = actor_.output_size();
  const bool telemetry_on = telemetry::enabled();
  while (true) {
    // Streaming refill: top the batch back up to the nominal width before
    // servicing the round, so episode boundaries don't decay the achieved
    // rows into a narrow tail.
    while (source != nullptr && pending_.size() < width) {
      BatchedEnv* env = (*source)();
      if (env == nullptr) {
        source = nullptr;
        break;
      }
      if (env->advance_to_decision()) pending_.push_back(env);
    }
    if (pending_.empty()) break;
    const std::size_t rows = pending_.size();
    if (obs_.size() < rows * obs_dim_) obs_.resize(rows * obs_dim_);
    for (std::size_t r = 0; r < rows; ++r) {
      pending_[r]->write_observation({obs_.data() + r * obs_dim_, obs_dim_});
    }
    const std::size_t gemv_rows = actor_.predict_batch(obs_.data(), rows, logits_, scratch_);
    ++stats.rounds;
    if (gemv_rows == rows) ++stats.gemv_rounds;
    stats.gemv_rows += gemv_rows;
    stats.decisions += rows;
    stats.max_rows = std::max(stats.max_rows, rows);
    if (telemetry_on) {
      telemetry::MetricsRegistry::global().observe(
          "rl.rollout.batch_rows", static_cast<double>(rows), batch_rows_config());
    }
    // Apply in stable env order. Episodes are independent (own RNG streams,
    // own engines), so servicing order cannot leak between them; keeping it
    // stable just makes the driver's own behaviour reproducible.
    next_.clear();
    for (std::size_t r = 0; r < rows; ++r) {
      pending_[r]->apply_logits({logits_.data() + r * out_dim, out_dim});
      if (pending_[r]->advance_to_decision()) next_.push_back(pending_[r]);
    }
    pending_.swap(next_);
  }
  return stats;
}

}  // namespace dosc::rl
