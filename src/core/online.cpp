#include "core/online.hpp"

#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace dosc::core {

OnlineTrainingCoordinator::OnlineTrainingCoordinator(rl::ActorCritic policy,
                                                     const OnlineTrainerConfig& config,
                                                     std::size_t max_degree, util::Rng rng)
    : OnlineLearnerState{std::move(policy), rl::TrajectoryBuffer(config.gamma)},
      TrainingEnv(live_policy, trajectories, config.reward, max_degree, rng),
      config_(config),
      updater_(config.updater) {}

void OnlineTrainingCoordinator::on_periodic(const sim::Simulator& /*sim*/, double /*time*/) {
  // Closed (terminal) trajectories accumulated since the last update become
  // one training batch; open flows keep collecting and are picked up by a
  // later update once they terminate.
  if (trajectories.completed_steps() < config_.min_batch) return;
  DOSC_TRACE_SCOPE("online", "policy_refresh");
  const util::Timer timer;
  trajectories.drain_into(batch_scratch_, live_policy, live_policy.config().obs_dim);
  updater_.update(live_policy, batch_scratch_);
  const double us = timer.elapsed_micros();
  refresh_time_us_.add(us);
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
    registry.observe("online.refresh_us", us);
    registry.counter("online.updates").add(1);
  }
}

}  // namespace dosc::core
