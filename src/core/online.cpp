#include "core/online.hpp"

#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace dosc::core {

OnlineTrainingCoordinator::OnlineTrainingCoordinator(rl::ActorCritic policy,
                                                     const OnlineTrainerConfig& config,
                                                     std::size_t max_degree, util::Rng rng)
    : policy_(std::move(policy)),
      config_(config),
      updater_(config.updater),
      buffer_(config.gamma),
      obs_(max_degree),
      rng_(rng) {}

void OnlineTrainingCoordinator::on_episode_start(const sim::Simulator& sim) {
  sim_ = &sim;
  shaper_ = std::make_unique<RewardShaper>(config_.reward, sim.shortest_paths().diameter());
  obs_.bind(sim);
  episode_reward_ = 0.0;
}

int OnlineTrainingCoordinator::decide(const sim::Simulator& sim, const sim::Flow& flow,
                                      net::NodeId node) {
  const std::vector<double>& obs = obs_.build(sim, flow, node);
  // Always sampled: an online learner must keep exploring.
  const int action = policy_.sample_action(obs, rng_);
  buffer_.record_decision(flow.id, obs, action);
  return action;
}

void OnlineTrainingCoordinator::on_periodic(const sim::Simulator& /*sim*/, double /*time*/) {
  // Closed (terminal) trajectories accumulated since the last update become
  // one training batch; open flows keep collecting and are picked up by a
  // later update once they terminate.
  if (buffer_.completed_steps() < config_.min_batch) return;
  DOSC_TRACE_SCOPE("online", "policy_refresh");
  const util::Timer timer;
  buffer_.drain_into(batch_scratch_, policy_, policy_.config().obs_dim);
  updater_.update(policy_, batch_scratch_);
  const double us = timer.elapsed_micros();
  refresh_time_us_.add(us);
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
    registry.observe("online.refresh_us", us);
    registry.counter("online.updates").add(1);
  }
}

void OnlineTrainingCoordinator::reward_flow(sim::FlowId flow, double r) {
  buffer_.record_reward(flow, r);
  episode_reward_ += r;
}

void OnlineTrainingCoordinator::on_completed(const sim::Flow& flow, double /*time*/) {
  reward_flow(flow.id, shaper_->on_completed());
  buffer_.finish(flow.id);
}

void OnlineTrainingCoordinator::on_dropped(const sim::Flow& flow, sim::DropReason /*reason*/,
                                           double /*time*/) {
  reward_flow(flow.id, shaper_->on_dropped());
  buffer_.finish(flow.id);
}

void OnlineTrainingCoordinator::on_component_processed(const sim::Flow& flow,
                                                       net::NodeId /*node*/, double /*time*/) {
  reward_flow(flow.id, shaper_->on_component_processed(sim_->service_of(flow).length()));
}

void OnlineTrainingCoordinator::on_forwarded(const sim::Flow& flow, net::NodeId /*from*/,
                                             net::LinkId link, double /*time*/) {
  reward_flow(flow.id, shaper_->on_forwarded(sim_->network().link(link).delay));
}

void OnlineTrainingCoordinator::on_parked(const sim::Flow& flow, net::NodeId /*node*/,
                                          double /*time*/) {
  reward_flow(flow.id, shaper_->on_parked());
}

}  // namespace dosc::core
