// Centralized DRL baseline: a behavioural re-implementation of the
// authors' prior "self-driving network and service coordination" system
// (DeepCoord, CNSM 2020), as characterised in this paper (Sec. II, V-A3):
//
//  * ONE central agent for the whole network, trained with the same
//    actor-critic machinery as the distributed approach.
//  * It observes the GLOBAL node utilisation — but only through periodic
//    monitoring, so the state it acts on is one monitoring interval STALE.
//  * Every interval it refreshes coarse forwarding rules: for each service
//    component, a small weighted set of nodes that should host/process it.
//    The rules are applied to ALL flows at runtime by the nodes (cheap
//    hash lookups), so there is no per-flow admission control.
//  * Flows are routed hop-by-hop along SHORTEST PATHS towards the ruled
//    node; link capacities are NOT considered (the paper's critique).
//
// These are precisely the behavioural properties the evaluation attributes
// to the central baseline: competitive under deterministic traffic, but
// unable to react to bursts, and with per-update inference cost that grows
// with the network size (observation is O(V)).
#pragma once

#include <array>
#include <vector>

#include "core/trainer.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "rl/updater.hpp"
#include "sim/coordinator.hpp"
#include "sim/simulator.hpp"

namespace dosc::baselines {

struct CentralDrlConfig {
  /// Monitoring + rule-update period; observations are this stale.
  double monitoring_interval = 50.0;
  std::vector<std::size_t> hidden{64, 64};
};

/// Observation size of the central agent: stale free capacity per node,
/// one-hot of the component being placed, normalised episode time.
std::size_t central_observation_dim(const sim::Scenario& scenario);

/// The runtime coordinator. In inference mode it applies the trained
/// policy's rules; in training mode (buffer != nullptr) it samples rule
/// decisions and records one trajectory per component, with the flow
/// rewards split evenly across the per-component rule trajectories.
class CentralDrlCoordinator final : public sim::Coordinator, public core::RewardTally {
 public:
  CentralDrlCoordinator(const rl::ActorCritic& policy, const CentralDrlConfig& config,
                        const core::RewardConfig& reward, rl::TrajectoryBuffer* buffer = nullptr,
                        util::Rng rng = util::Rng(0));

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override;
  void on_episode_start(const sim::Simulator& sim) override;
  double periodic_interval() const override { return config_.monitoring_interval; }
  /// The centralized rule update. Its wall-clock time (the baseline's
  /// "inference time" in Fig. 9b — grows with the network size) is measured
  /// by the simulator: Simulator::enable_decision_timing →
  /// SimMetrics::rule_update_time.
  void on_periodic(const sim::Simulator& sim, double time) override;

 private:
  /// Training: split the flow's reward across the rule trajectories.
  void credit(const sim::Flow& flow, double reward, bool terminal) override;
  void refresh_rules(const sim::Simulator& sim, double time);
  std::vector<double> build_observation(const sim::Simulator& sim, sim::ComponentId component,
                                        double time) const;

  const rl::ActorCritic& policy_;
  CentralDrlConfig config_;
  rl::TrajectoryBuffer* buffer_;
  util::Rng rng_;

  std::vector<double> stale_free_;  ///< per-node free capacity, one interval old
  /// A coarse forwarding rule per component: a small set of instance nodes
  /// with scheduling weights, emulating DeepCoord's weighted rules. The
  /// weights combine the trained policy's node priorities with the stale
  /// monitoring view of free capacity (the heuristic support the paper
  /// notes such central approaches rely on). Each flow is assigned to one
  /// ruled node by a stable hash of its id, so the weighted split holds
  /// hop-to-hop and even with a single ingress.
  struct Rule {
    std::vector<net::NodeId> nodes;
    std::vector<double> cumulative;  ///< same length; last element == 1
  };
  std::vector<Rule> targets_;
};

struct CentralTrainingConfig {
  CentralDrlConfig central;
  rl::UpdaterConfig updater;
  core::RewardConfig reward;
  double gamma = 0.99;
  std::size_t num_seeds = 2;
  std::size_t parallel_envs = 4;
  std::size_t iterations = 60;
  double train_episode_time = 2000.0;
  std::size_t eval_episodes = 3;
  double eval_episode_time = 2000.0;
  std::uint64_t seed_base = 1;
};

/// Train the central agent on a scenario; returns the best seed's policy
/// (net_config.obs_dim == central_observation_dim, num_actions == V).
core::TrainedPolicy train_central_policy(const sim::Scenario& scenario,
                                         const CentralTrainingConfig& config);

/// Greedy evaluation of a trained central policy (mirrors
/// core::evaluate_policy for the distributed agent).
core::EvalResult evaluate_central_policy(const sim::Scenario& scenario,
                                         const rl::ActorCritic& policy,
                                         const CentralTrainingConfig& config,
                                         std::size_t episodes, double episode_time,
                                         std::uint64_t seed_base);

}  // namespace dosc::baselines
