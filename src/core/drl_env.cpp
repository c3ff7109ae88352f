#include "core/drl_env.hpp"

#include <algorithm>
#include <stdexcept>


namespace dosc::core {

RewardShaper::RewardShaper(const RewardConfig& config, double network_diameter)
    : config_(config), diameter_(network_diameter) {
  if (diameter_ <= 0.0) diameter_ = 1.0;  // degenerate single-link networks
}

void RewardTally::start(const sim::Simulator& sim) {
  sim_ = &sim;
  shaper_ = RewardShaper(config_, sim.shortest_paths().diameter());
  total_ = 0.0;
}

void RewardTally::on_completed(const sim::Flow& flow, double /*time*/) {
  add(flow, shaper_.on_completed(), /*terminal=*/true);
}

void RewardTally::on_dropped(const sim::Flow& flow, sim::DropReason /*reason*/,
                             double /*time*/) {
  add(flow, shaper_.on_dropped(), /*terminal=*/true);
}

void RewardTally::on_component_processed(const sim::Flow& flow, net::NodeId /*node*/,
                                         double /*time*/) {
  add(flow, shaper_.on_component_processed(sim_->service_of(flow).length()),
      /*terminal=*/false);
}

void RewardTally::on_forwarded(const sim::Flow& flow, net::NodeId /*from*/, net::LinkId link,
                               double /*time*/) {
  add(flow, shaper_.on_forwarded(sim_->network().link(link).delay), /*terminal=*/false);
}

void RewardTally::on_parked(const sim::Flow& flow, net::NodeId /*node*/, double /*time*/) {
  add(flow, shaper_.on_parked(), /*terminal=*/false);
}

TrainingEnv::TrainingEnv(const rl::ActorCritic& policy, rl::TrajectoryBuffer& buffer,
                         const RewardConfig& reward, std::size_t max_degree, util::Rng rng,
                         ObservationMask mask, bool record_behavior_logp)
    : RewardTally(reward),
      policy_(policy),
      buffer_(buffer),
      obs_(max_degree, mask),
      rng_(rng),
      record_behavior_logp_(record_behavior_logp) {}

void TrainingEnv::on_episode_start(const sim::Simulator& sim) {
  start(sim);
  obs_.bind(sim);
}

int TrainingEnv::decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) {
  const std::vector<double>& obs = obs_.build(sim, flow, node);
  if (record_behavior_logp_) {
    double logp = 0.0;
    const int action = policy_.sample_action(obs, rng_, &logp);
    buffer_.record_decision(flow.id, obs, action, logp);
    return action;
  }
  const int action = policy_.sample_action(obs, rng_);
  buffer_.record_decision(flow.id, obs, action);
  return action;
}

const std::vector<double>& TrainingEnv::build_observation(const sim::Simulator& sim,
                                                          const sim::Flow& flow,
                                                          net::NodeId node) {
  pending_obs_ = &obs_.build(sim, flow, node);
  return *pending_obs_;
}

int TrainingEnv::decide_from_logits(const sim::Flow& flow, std::span<const double> logits) {
  // decide() with the actor forward hoisted out: sample_action(obs, ...) is
  // predict_row + sample_action_from_logits, so feeding the fused forward's
  // logit row through the same sampler consumes rng_ identically.
  if (record_behavior_logp_) {
    double logp = 0.0;
    const int action = rl::ActorCritic::sample_action_from_logits(logits, rng_, &logp);
    buffer_.record_decision(flow.id, *pending_obs_, action, logp);
    return action;
  }
  const int action = rl::ActorCritic::sample_action_from_logits(logits, rng_);
  buffer_.record_decision(flow.id, *pending_obs_, action);
  return action;
}

void TrainingEnv::credit(const sim::Flow& flow, double reward, bool terminal) {
  buffer_.record_reward(flow.id, reward);
  if (terminal) buffer_.finish(flow.id);
}

DistributedDrlCoordinator::DistributedDrlCoordinator(const rl::ActorCritic& policy,
                                                     std::size_t max_degree, bool stochastic,
                                                     util::Rng rng, ObservationMask mask)
    : policy_(policy), obs_(max_degree, mask), stochastic_(stochastic), rng_(rng) {
  if (policy.config().obs_dim != observation_dim(max_degree)) {
    throw std::invalid_argument(
        "DistributedDrlCoordinator: policy observation size does not match network degree");
  }
}

int DistributedDrlCoordinator::decide(const sim::Simulator& sim, const sim::Flow& flow,
                                      net::NodeId node) {
  const std::vector<double>& obs = obs_.build(sim, flow, node);
  return stochastic_ ? policy_.sample_action(obs, rng_) : policy_.greedy_action(obs);
}

void DistributedDrlCoordinator::on_episode_start(const sim::Simulator& sim) {
  obs_.bind(sim);
}

const std::vector<double>& DistributedDrlCoordinator::build_observation(
    const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) {
  return obs_.build(sim, flow, node);
}

int DistributedDrlCoordinator::decide_from_logits(const sim::Flow& /*flow*/,
                                                  std::span<const double> logits) {
  return stochastic_ ? rl::ActorCritic::sample_action_from_logits(logits, rng_)
                     : rl::ActorCritic::greedy_action_from_logits(logits);
}

LegacyDistributedDrlCoordinator::LegacyDistributedDrlCoordinator(const rl::ActorCritic& policy,
                                                                 std::size_t max_degree,
                                                                 bool stochastic, util::Rng rng,
                                                                 ObservationMask mask)
    : policy_(policy), obs_(max_degree, mask), stochastic_(stochastic), rng_(rng) {
  if (policy.config().obs_dim != observation_dim(max_degree)) {
    throw std::invalid_argument(
        "LegacyDistributedDrlCoordinator: policy observation size does not match degree");
  }
}

int LegacyDistributedDrlCoordinator::decide(const sim::Simulator& sim, const sim::Flow& flow,
                                            net::NodeId node) {
  // The pre-fast-path pipeline, bit for bit: generic observation build
  // (obs_ is never bound), the scalar bias-first forward, softmax into a
  // probs vector, and util::Rng::categorical for the stochastic mode.
  const std::vector<double>& obs = obs_.build(sim, flow, node);
  policy_.actor().predict_row_legacy(obs, logits_, scratch_);
  if (stochastic_) {
    rl::softmax_into(logits_, probs_);
    return static_cast<int>(rng_.categorical(probs_));
  }
  return static_cast<int>(std::max_element(logits_.begin(), logits_.end()) - logits_.begin());
}

}  // namespace dosc::core
