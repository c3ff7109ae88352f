// rl::BatchedEnv over one sim::Simulator episode.
//
// Bridges the engine's decision-yield surface (Simulator::advance_to_decision
// / resume_with_action) to the batched rollout driver: the episode runs to
// its next decision point, the agent's split decision surface
// (BatchedDecisionAgent) builds the observation for the gather and later
// finishes the decision from the fused forward's logit row. Given identical
// actions the engine's event stream is the run() path verbatim, so metrics
// and digests match the sequential driver bit for bit.
#pragma once

#include <cstdint>
#include <span>

#include "core/drl_env.hpp"
#include "rl/batched_rollout.hpp"
#include "sim/simulator.hpp"

namespace dosc::core {

class YieldingEpisode final : public rl::BatchedEnv {
 public:
  /// `coordinator` receives the episode-start/periodic callbacks exactly as
  /// under Simulator::run (its decide() is never called — decisions yield);
  /// `agent` services them instead. In practice both are the same object
  /// (TrainingEnv, DistributedDrlCoordinator). All referents must outlive
  /// this episode.
  YieldingEpisode(const sim::Scenario& scenario, std::uint64_t seed,
                  sim::Coordinator& coordinator, BatchedDecisionAgent& agent,
                  sim::FlowObserver* observer = nullptr)
      : sim_(scenario, seed), coordinator_(&coordinator), agent_(&agent),
        observer_(observer) {}

  /// For pre-start setup (audit hooks, decision timing).
  sim::Simulator& simulator() noexcept { return sim_; }

  /// Replaces the observer before the simulation starts (it is consumed
  /// lazily at the first advance_to_decision). Lets callers build an
  /// observer that needs the simulator reference after constructing the
  /// episode that owns it.
  void set_observer(sim::FlowObserver* observer) noexcept { observer_ = observer; }

  bool advance_to_decision() override;
  void write_observation(std::span<double> out) override;
  void apply_logits(std::span<const double> logits) override;

  /// Episode-end callbacks + metrics; call after advance_to_decision
  /// returned false.
  sim::SimMetrics finish() { return sim_.finish(); }

 private:
  sim::Simulator sim_;
  sim::Coordinator* coordinator_;
  BatchedDecisionAgent* agent_;
  sim::FlowObserver* observer_;
  bool started_ = false;
};

/// One training episode: a TrainingEnv that samples from `policy` with the
/// rng stream `seed * 31 + 7` and records into `buffer`, bundled with the
/// YieldingEpisode that drives it. finish() fires the episode-end callbacks
/// and returns the episode's total shaped reward; call it once, after
/// advance_to_decision returned false.
class TrainingEpisode final : public rl::BatchedEnv {
 public:
  TrainingEpisode(const sim::Scenario& scenario, std::uint64_t seed,
                  const rl::ActorCritic& policy, rl::TrajectoryBuffer& buffer,
                  const RewardConfig& reward, std::size_t max_degree,
                  const ObservationMask& mask = {}, bool record_behavior_logp = false)
      : env_(policy, buffer, reward, max_degree, util::Rng(seed * 31 + 7), mask,
             record_behavior_logp),
        episode_(scenario, seed, env_, env_, &env_) {}

  bool advance_to_decision() override { return episode_.advance_to_decision(); }
  void write_observation(std::span<double> out) override { episode_.write_observation(out); }
  void apply_logits(std::span<const double> logits) override { episode_.apply_logits(logits); }
  double finish() {
    episode_.finish();
    return env_.episode_reward();
  }

 private:
  TrainingEnv env_;  // must outlive episode_ (constructed first)
  YieldingEpisode episode_;
};

}  // namespace dosc::core
