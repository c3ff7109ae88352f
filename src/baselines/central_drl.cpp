#include "baselines/central_drl.hpp"

#include <algorithm>
#include <stdexcept>

#include "baselines/shortest_path.hpp"

namespace dosc::baselines {

std::size_t central_observation_dim(const sim::Scenario& scenario) {
  return scenario.network().num_nodes() + scenario.catalog().num_components() + 1;
}

CentralDrlCoordinator::CentralDrlCoordinator(const rl::ActorCritic& policy,
                                             const core::RewardConfig& reward,
                                             rl::TrajectoryBuffer* buffer, util::Rng rng)
    : RewardTally(reward), policy_(policy), buffer_(buffer), rng_(rng) {}

void CentralDrlCoordinator::on_episode_start(const sim::Simulator& sim) {
  start(sim);
  const std::size_t n = sim.network().num_nodes();
  // Before the first monitoring round the central agent only knows the
  // nominal capacities (no utilisation yet) — that is also the freshest
  // data it will ever have.
  stale_free_.assign(n, 0.0);
  for (net::NodeId v = 0; v < n; ++v) stale_free_[v] = sim.network().node(v).capacity;
  targets_.assign(sim.catalog().num_components(), Rule{});
  refresh_rules(sim, 0.0);
}

std::vector<double> CentralDrlCoordinator::build_observation(const sim::Simulator& sim,
                                                             sim::ComponentId component,
                                                             double time) const {
  const double max_cap = std::max(1e-12, sim.network().max_node_capacity());
  std::vector<double> obs;
  obs.reserve(stale_free_.size() + sim.catalog().num_components() + 1);
  for (const double free : stale_free_) obs.push_back(std::clamp(free / max_cap, -1.0, 1.0));
  for (sim::ComponentId c = 0; c < sim.catalog().num_components(); ++c) {
    obs.push_back(c == component ? 1.0 : 0.0);
  }
  obs.push_back(std::clamp(time / sim.scenario().config().end_time, 0.0, 1.0));
  return obs;
}

void CentralDrlCoordinator::refresh_rules(const sim::Simulator& sim, double time) {
  // One rule decision per component, computed from the STALE global view.
  // Each component's rule forms its own trajectory (buffer key = component
  // id), so the reward stream credits every rule, not only the last one
  // chosen in this loop.
  constexpr std::size_t kRuleFanout = 6;  // instances per component rule
  for (sim::ComponentId c = 0; c < sim.catalog().num_components(); ++c) {
    const std::vector<double> obs = build_observation(sim, c, time);
    const double demand = sim.catalog().component(c).resource(1.0);
    const std::vector<double> policy_probs = policy_.action_probs(obs);

    // Trained decision (recorded for the policy gradient): the sampled /
    // greedy node from the pure policy distribution.
    if (buffer_ != nullptr) {
      const int action = static_cast<int>(rng_.categorical(policy_probs));
      buffer_->record_decision(/*key=*/c, obs, action);
    }

    // Applied rule: DeepCoord-style scheduling weights — the policy's node
    // priorities modulated by the STALE monitoring view of free capacity,
    // with infeasible nodes masked out. Bursts arriving between monitoring
    // rounds still overload the ruled nodes; that staleness is the
    // weakness the paper demonstrates.
    std::vector<double> weights(policy_probs.size(), 0.0);
    double mass = 0.0;
    for (std::size_t v = 0; v < weights.size(); ++v) {
      if (stale_free_[v] >= demand) {
        weights[v] = (policy_probs[v] + 1e-3) * stale_free_[v];
        mass += weights[v];
      }
    }
    if (mass <= 0.0) {
      weights = policy_probs;  // nothing fits in the stale view: raw policy
    }
    // Keep only the top-k nodes (rules stay coarse: a handful of
    // instances per component, not per-flow placement).
    std::vector<std::size_t> order(weights.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(), order.begin() + std::min(kRuleFanout, order.size()),
                      order.end(),
                      [&](std::size_t a, std::size_t b) { return weights[a] > weights[b]; });
    Rule rule;
    double total = 0.0;
    for (std::size_t i = 0; i < std::min(kRuleFanout, order.size()); ++i) {
      if (weights[order[i]] <= 0.0) break;
      rule.nodes.push_back(static_cast<net::NodeId>(order[i]));
      total += weights[order[i]];
      rule.cumulative.push_back(total);
    }
    if (rule.nodes.empty()) {
      rule.nodes.push_back(0);
      rule.cumulative.push_back(1.0);
      total = 1.0;
    }
    for (double& w : rule.cumulative) w /= total;
    targets_[c] = std::move(rule);
  }
}

void CentralDrlCoordinator::on_periodic(const sim::Simulator& sim, double time) {
  refresh_rules(sim, time);
  // Take the new monitoring snapshot AFTER deciding: it becomes available
  // to the agent only at the next interval — the monitoring delay.
  for (net::NodeId v = 0; v < sim.network().num_nodes(); ++v) {
    stale_free_[v] = sim.node_free(v);
  }
}

int CentralDrlCoordinator::decide(const sim::Simulator& sim, const sim::Flow& flow,
                                  net::NodeId node) {
  // Runtime rule application — a cheap lookup, identical at every node.
  net::NodeId target;
  if (sim.fully_processed(flow)) {
    target = flow.egress;
  } else {
    const Rule& rule = targets_[sim.requested_component(flow)];
    // Stable per-flow weighted assignment: hash the flow id into [0, 1)
    // and look it up in the rule's cumulative weights. Every node applies
    // the same rule, so the assignment is consistent hop to hop.
    std::uint64_t h = flow.id * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 33;
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    target = rule.nodes.back();
    for (std::size_t i = 0; i < rule.nodes.size(); ++i) {
      if (u < rule.cumulative[i]) {
        target = rule.nodes[i];
        break;
      }
    }
    if (node == target) return sim::kActionProcessLocal;
  }
  const net::NodeId hop = sim.shortest_paths().next_hop(node, target);
  const int action = neighbor_action(sim.network(), node, hop);
  // Unreachable target (or target == node for a processed flow): keep the
  // flow; the deadline will handle pathological cases.
  return action > 0 ? action : sim::kActionProcessLocal;
}

void CentralDrlCoordinator::credit(const sim::Flow& /*flow*/, double reward,
                                   bool /*terminal*/) {
  if (buffer_ == nullptr) return;
  // Flow-level rewards cannot be attributed to one component's rule;
  // split them evenly across the per-component rule trajectories.
  const std::size_t n = targets_.size();
  if (n == 0) return;
  const double share = reward / static_cast<double>(n);
  for (sim::ComponentId c = 0; c < n; ++c) buffer_->record_reward(c, share);
}

namespace {

/// Greedy evaluation of a central policy, one episode after another (the
/// central agent's counterpart of core::evaluate_policy).
core::EvalResult evaluate_central_policy(const sim::Scenario& scenario,
                                         const rl::ActorCritic& policy,
                                         const core::RewardConfig& reward, std::size_t episodes,
                                         double episode_time, std::uint64_t seed_base) {
  const sim::Scenario eval_scenario = scenario.with_end_time(episode_time);
  util::RunningStats success;
  util::RunningStats rewards;
  util::RunningStats delays;
  for (std::size_t e = 0; e < episodes; ++e) {
    sim::Simulator sim(eval_scenario, seed_base + e);
    CentralDrlCoordinator coordinator(policy, reward);
    const sim::SimMetrics metrics = sim.run(coordinator, &coordinator);
    success.add(metrics.success_ratio());
    rewards.add(coordinator.episode_reward());
    if (metrics.e2e_delay.count() > 0) delays.add(metrics.e2e_delay.mean());
  }
  return {success.mean(), rewards.mean(), delays.mean()};
}

}  // namespace

core::TrainedPolicy train_central_policy(const sim::Scenario& scenario,
                                         const core::TrainingConfig& config) {
  if (config.observation_mask != core::ObservationMask{}) {
    throw std::invalid_argument(
        "train_central_policy: observation_mask must be the default (the central agent "
        "builds its own observation)");
  }
  const std::size_t obs_dim = central_observation_dim(scenario);
  const sim::Scenario train_scenario = scenario.with_end_time(config.train_episode_time);

  // Each iteration's l episodes run one after another on the seed's thread.
  const auto train = [&](rl::ActorCritic& net, std::size_t seed_index) {
    const auto rollout = [&](std::size_t iteration, std::span<rl::TrajectoryBuffer> buffers,
                             std::span<double> episode_rewards) {
      for (std::size_t e = 0; e < buffers.size(); ++e) {
        const std::uint64_t es = core::episode_seed(config.seed_base, seed_index, iteration, e);
        CentralDrlCoordinator env(net, config.reward, &buffers[e], util::Rng(es * 17 + 3));
        sim::Simulator sim(train_scenario, es);
        sim.run(env, &env);
        episode_rewards[e] = env.episode_reward();
      }
    };
    core::train_seed(net, config, obs_dim, seed_index, rollout);
  };
  const auto evaluate = [&](const rl::ActorCritic& net, std::uint64_t seed_base) {
    return evaluate_central_policy(scenario, net, config.reward, config.eval_episodes,
                                   config.eval_episode_time, seed_base);
  };
  return core::train_best_seed(scenario, config, obs_dim,
                               /*num_actions=*/scenario.network().num_nodes(), train,
                               evaluate);
}

}  // namespace dosc::baselines
