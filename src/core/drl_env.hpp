// The DRL agents' coupling to the simulator: action semantics, shaped
// reward (Sec. IV-B2/3), a training environment that collects per-flow
// trajectories, and the fully distributed inference coordinator.
#pragma once

#include <span>
#include <vector>

#include "core/observation.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "sim/coordinator.hpp"
#include "sim/simulator.hpp"

namespace dosc::core {

/// Reward function R of the POMDP (Sec. IV-B3). The large terminal
/// rewards dominate; the auxiliary shaping terms only nudge exploration
/// (+1/n_s per traversed instance, -d_l/D_G per link hop, -1/D_G for
/// keeping a finished flow).
struct RewardConfig {
  double success = 10.0;
  double drop = -10.0;
  double instance_bonus_scale = 1.0;  ///< multiplies +1/n_s
  double link_penalty_scale = 1.0;    ///< multiplies -d_l/D_G
  double park_penalty_scale = 1.0;    ///< multiplies -1/D_G
};

/// Computes the shaped reward for each flow lifecycle event.
class RewardShaper {
 public:
  RewardShaper(const RewardConfig& config, double network_diameter);

  double on_completed() const noexcept { return config_.success; }
  double on_dropped() const noexcept { return config_.drop; }
  double on_component_processed(std::size_t chain_length) const noexcept {
    return config_.instance_bonus_scale / static_cast<double>(std::max<std::size_t>(1, chain_length));
  }
  double on_forwarded(double link_delay) const noexcept {
    return -config_.link_penalty_scale * link_delay / diameter_;
  }
  double on_parked() const noexcept { return -config_.park_penalty_scale / diameter_; }

 private:
  RewardConfig config_;
  double diameter_;
};

/// The shaped reward of one episode, credited flow by flow: the only code
/// that maps the simulator's flow-lifecycle callbacks onto RewardShaper
/// terms. start() binds an episode (the shaper needs its diameter D_G) and
/// zeroes the total; each callback then adds its term to episode_reward()
/// and hands it to credit(), which users override to record it. Plugged in
/// as a Simulator's FlowObserver, a bare RewardTally only sums (greedy
/// evaluation).
class RewardTally : public sim::FlowObserver {
 public:
  explicit RewardTally(const RewardConfig& config) : config_(config) {}

  void start(const sim::Simulator& sim);

  /// Sum of all rewards handed out since start().
  double episode_reward() const noexcept { return total_; }

  void on_completed(const sim::Flow& flow, double time) final;
  void on_dropped(const sim::Flow& flow, sim::DropReason reason, double time) final;
  void on_component_processed(const sim::Flow& flow, net::NodeId node, double time) final;
  void on_forwarded(const sim::Flow& flow, net::NodeId from, net::LinkId link,
                    double time) final;
  void on_parked(const sim::Flow& flow, net::NodeId node, double time) final;

 protected:
  /// One reward term for `flow`; `terminal` when the flow completed or was
  /// dropped (its last term).
  virtual void credit(const sim::Flow& /*flow*/, double /*reward*/, bool /*terminal*/) {}

 private:
  void add(const sim::Flow& flow, double reward, bool terminal) {
    total_ += reward;
    credit(flow, reward, terminal);
  }

  RewardConfig config_;
  RewardShaper shaper_{config_, 1.0};  ///< rebuilt by start() with the episode's D_G
  const sim::Simulator* sim_ = nullptr;
  double total_ = 0.0;
};

/// The decision pipeline split around the actor forward, for batched
/// rollout (rl::BatchedRollout): build_observation exposes the pending
/// decision's observation row so the driver can gather it into a fused
/// predict_batch, and decide_from_logits finishes the decision from the
/// externally computed logit row. decide(sim, flow, node) ==
/// build_observation + actor forward + decide_from_logits, sharing the
/// sampling code (ActorCritic::sample_action_from_logits), so action and
/// rng-stream behaviour are bit-identical whichever way a decision runs.
class BatchedDecisionAgent {
 public:
  virtual ~BatchedDecisionAgent() = default;
  /// Observation for the pending decision; the reference stays valid until
  /// the agent's next build. The matching decide_from_logits call must
  /// happen before the next build_observation on this agent.
  virtual const std::vector<double>& build_observation(const sim::Simulator& sim,
                                                       const sim::Flow& flow,
                                                       net::NodeId node) = 0;
  virtual int decide_from_logits(const sim::Flow& flow,
                                 std::span<const double> logits) = 0;
};

/// Training-time environment adapter (Alg. 1, lines 4-9): samples actions
/// from the policy being trained, records (observation, action) per flow,
/// and credits shaped rewards to the flow's most recent decision. Implements
/// both simulator callbacks; plug one instance into one Simulator episode.
class TrainingEnv : public sim::Coordinator,
                    public RewardTally,
                    public BatchedDecisionAgent {
 public:
  /// `record_behavior_logp` additionally stores log pi(a|o) with every
  /// decision (overlapped training's clipped-IS correction needs it). The
  /// rng stream and action sequence are bit-identical either way.
  TrainingEnv(const rl::ActorCritic& policy, rl::TrajectoryBuffer& buffer,
              const RewardConfig& reward, std::size_t max_degree, util::Rng rng,
              ObservationMask mask = {}, bool record_behavior_logp = false);

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override;
  void on_episode_start(const sim::Simulator& sim) override;

  const std::vector<double>& build_observation(const sim::Simulator& sim,
                                               const sim::Flow& flow,
                                               net::NodeId node) override;
  int decide_from_logits(const sim::Flow& flow, std::span<const double> logits) override;

 private:
  void credit(const sim::Flow& flow, double reward, bool terminal) override;

  const rl::ActorCritic& policy_;
  rl::TrajectoryBuffer& buffer_;
  ObservationBuilder obs_;
  util::Rng rng_;
  bool record_behavior_logp_ = false;
  /// Observation of the in-flight split decision (build_observation →
  /// decide_from_logits); points into obs_'s buffer, valid until next build.
  const std::vector<double>* pending_obs_ = nullptr;
};

/// Fully distributed online inference (Alg. 1, lines 13-19): a trained
/// policy copied to every node, queried with purely local observations.
/// Per-decision wall-clock time for the Fig. 9b measurement is recorded by
/// the simulator (Simulator::enable_decision_timing →
/// SimMetrics::decision_time), uniformly for all algorithms.
class DistributedDrlCoordinator final : public sim::Coordinator,
                                        public BatchedDecisionAgent {
 public:
  /// `stochastic` samples from the policy (as during training); the default
  /// greedy mode takes the argmax action, the usual deployment choice.
  DistributedDrlCoordinator(const rl::ActorCritic& policy, std::size_t max_degree,
                            bool stochastic = false, util::Rng rng = util::Rng(0),
                            ObservationMask mask = {});

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override;
  /// Binds the observation builder's per-episode fast-path tables.
  void on_episode_start(const sim::Simulator& sim) override;

  const std::vector<double>& build_observation(const sim::Simulator& sim,
                                               const sim::Flow& flow,
                                               net::NodeId node) override;
  int decide_from_logits(const sim::Flow& flow, std::span<const double> logits) override;

 private:
  const rl::ActorCritic& policy_;
  ObservationBuilder obs_;
  bool stochastic_;
  util::Rng rng_;
};

/// The seed's per-decision pipeline — unbound (graph-walking) observation
/// build plus the scalar predict_row loop — frozen as an executable
/// reference point: the golden guard
/// (Golden.FastPathMatchesLegacyDecisionStream) asserts both pipelines
/// produce the same greedy decision stream. Not for production use.
class LegacyDistributedDrlCoordinator final : public sim::Coordinator {
 public:
  LegacyDistributedDrlCoordinator(const rl::ActorCritic& policy, std::size_t max_degree,
                                  bool stochastic = false, util::Rng rng = util::Rng(0),
                                  ObservationMask mask = {});

  int decide(const sim::Simulator& sim, const sim::Flow& flow, net::NodeId node) override;

 private:
  const rl::ActorCritic& policy_;
  ObservationBuilder obs_;  ///< never bound: always the generic build path
  bool stochastic_;
  util::Rng rng_;
  nn::Mlp::Scratch scratch_;
  std::vector<double> logits_;
  std::vector<double> probs_;
};

}  // namespace dosc::core
