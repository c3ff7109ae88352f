// Continuous online training (the extension sketched in Sec. IV-C1).
//
// After deployment, the distributed agents can keep learning from live
// traffic: decisions are sampled from the current policy, per-flow
// trajectories are collected exactly as in offline training, and every
// `update_period` ms of simulated time the accumulated experience is turned
// into one A2C/ACKTR update. In a real deployment each node would compute
// gradients locally and synchronize them asynchronously (federated
// learning); in the simulator the logically-shared network is updated in
// place, which is equivalent for a fully synchronized exchange.
//
// This lets an incumbent policy adapt to a scenario drift (new traffic
// pattern, changed load) without taking coordination offline — see
// OnlineAdaptation tests and the bench_ablation harness.
#pragma once

#include "core/drl_env.hpp"
#include "rl/updater.hpp"
#include "sim/coordinator.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace dosc::core {

struct OnlineTrainerConfig {
  rl::UpdaterConfig updater;   ///< same ACKTR defaults as offline training
  RewardConfig reward;
  double gamma = 0.99;
  double update_period = 500.0;     ///< simulated ms between policy updates
  std::size_t min_batch = 64;       ///< skip updates with fewer experiences
};

/// Coordinator that keeps training its policy while coordinating. Owns a
/// mutable copy of the starting policy; read the adapted policy back with
/// policy() after the episode.
class OnlineTrainingCoordinator final : public sim::Coordinator, public sim::FlowObserver {
 public:
  OnlineTrainingCoordinator(rl::ActorCritic policy, const OnlineTrainerConfig& config,
                            std::size_t max_degree, util::Rng rng);

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override;
  void on_episode_start(const sim::Simulator& sim) override;
  double periodic_interval() const override { return config_.update_period; }
  void on_periodic(const sim::Simulator& sim, double time) override;

  void on_completed(const sim::Flow& flow, double time) override;
  void on_dropped(const sim::Flow& flow, sim::DropReason reason, double time) override;
  void on_component_processed(const sim::Flow& flow, net::NodeId node, double time) override;
  void on_forwarded(const sim::Flow& flow, net::NodeId from, net::LinkId link,
                    double time) override;
  void on_parked(const sim::Flow& flow, net::NodeId node, double time) override;

  const rl::ActorCritic& policy() const noexcept { return policy_; }
  std::size_t updates_done() const noexcept { return updater_.updates_done(); }
  double episode_reward() const noexcept { return episode_reward_; }
  /// Wall clock (us) of each executed policy refresh (drain + update): the
  /// coordination downtime an online update would cost a live node. Also
  /// exported as the "online.refresh_us" telemetry histogram.
  const util::RunningStats& refresh_time_us() const noexcept { return refresh_time_us_; }

 private:
  void reward_flow(sim::FlowId flow, double r);

  rl::ActorCritic policy_;
  OnlineTrainerConfig config_;
  rl::Updater updater_;
  rl::TrajectoryBuffer buffer_;
  rl::Batch batch_scratch_;  ///< drained into, reused across refreshes
  std::unique_ptr<RewardShaper> shaper_;
  ObservationBuilder obs_;
  util::Rng rng_;
  const sim::Simulator* sim_ = nullptr;
  double episode_reward_ = 0.0;
  util::RunningStats refresh_time_us_;
};

}  // namespace dosc::core
