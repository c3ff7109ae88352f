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

/// What an online learner trains and records into. It is the learner's
/// first base class, so both exist before the TrainingEnv base that samples
/// from the policy and records into the buffer.
struct OnlineLearnerState {
  rl::ActorCritic live_policy;
  rl::TrajectoryBuffer trajectories;
};

/// A TrainingEnv that keeps training its policy while coordinating: every
/// update_period ms it turns the closed trajectories into one update of its
/// own mutable copy of the starting policy. Decisions are always sampled
/// (an online learner must keep exploring); read the adapted policy back
/// with policy() after the episode.
class OnlineTrainingCoordinator final : private OnlineLearnerState, public TrainingEnv {
 public:
  OnlineTrainingCoordinator(rl::ActorCritic policy, const OnlineTrainerConfig& config,
                            std::size_t max_degree, util::Rng rng);

  double periodic_interval() const override { return config_.update_period; }
  void on_periodic(const sim::Simulator& sim, double time) override;

  const rl::ActorCritic& policy() const noexcept { return live_policy; }
  std::size_t updates_done() const noexcept { return updater_.updates_done(); }
  /// Wall clock (us) of each executed policy refresh (drain + update): the
  /// coordination downtime an online update would cost a live node. Also
  /// exported as the "online.refresh_us" telemetry histogram.
  const util::RunningStats& refresh_time_us() const noexcept { return refresh_time_us_; }

 private:
  OnlineTrainerConfig config_;
  rl::Updater updater_;
  rl::Batch batch_scratch_;  ///< drained into, reused across refreshes
  util::RunningStats refresh_time_us_;
};

}  // namespace dosc::core
