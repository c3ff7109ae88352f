// Timing decorators over the libraries' public seams. Layers are timed only
// from outside: each decorator forwards to the wrapped object and adds the
// elapsed ticks of every call to a per-layer total.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/batched_episode.hpp"
#include "core/drl_env.hpp"
#include "harness.hpp"
#include "rl/actor_critic.hpp"
#include "rl/batched_rollout.hpp"
#include "sim/coordinator.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

struct LayerTime {
  std::uint64_t ticks = 0;
  std::uint64_t calls = 0;
  double ms() const { return static_cast<double>(ticks) * ns_per_tick() / 1e6; }
  double ns_per_call() const {
    return calls > 0 ? static_cast<double>(ticks) * ns_per_tick() / calls : 0.0;
  }
};

/// Times every Coordinator::decide; optionally keeps each call's duration.
class TimedCoordinator final : public dosc::sim::Coordinator {
 public:
  TimedCoordinator(dosc::sim::Coordinator& inner, std::vector<std::uint64_t>* samples = nullptr)
      : inner_(inner), samples_(samples) {}

  int decide(const dosc::sim::Simulator& sim, const dosc::sim::Flow& flow,
             dosc::net::NodeId node) override {
    const std::uint64_t t0 = ticks();
    const int action = inner_.decide(sim, flow, node);
    const std::uint64_t dt = ticks() - t0;
    decide_.ticks += dt;
    ++decide_.calls;
    if (samples_ != nullptr) samples_->push_back(dt);
    return action;
  }
  void on_episode_start(const dosc::sim::Simulator& sim) override {
    inner_.on_episode_start(sim);
  }
  double periodic_interval() const override { return inner_.periodic_interval(); }
  void on_periodic(const dosc::sim::Simulator& sim, double time) override {
    inner_.on_periodic(sim, time);
  }

  const LayerTime& decide_time() const noexcept { return decide_; }

 private:
  dosc::sim::Coordinator& inner_;
  std::vector<std::uint64_t>* samples_;
  LayerTime decide_;
};

/// Sequential decide split at the actor forward: build_observation ->
/// actor().predict_row -> decide_from_logits, each timed. Equal to the
/// wrapped coordinator's own decide bit for bit (the decision pipeline is
/// exactly these three steps), which the infer workload re-checks by event
/// digest.
class SplitCoordinator final : public dosc::sim::Coordinator {
 public:
  SplitCoordinator(dosc::core::DistributedDrlCoordinator& inner, const dosc::rl::ActorCritic& net)
      : inner_(inner), net_(net) {}

  int decide(const dosc::sim::Simulator& sim, const dosc::sim::Flow& flow,
             dosc::net::NodeId node) override {
    const std::uint64_t t0 = ticks();
    const std::vector<double>& obs = inner_.build_observation(sim, flow, node);
    const std::uint64_t t1 = ticks();
    net_.actor().predict_row(obs, logits_, scratch_);
    const std::uint64_t t2 = ticks();
    const int action = inner_.decide_from_logits(flow, logits_);
    const std::uint64_t t3 = ticks();
    observation.ticks += t1 - t0;
    forward.ticks += t2 - t1;
    select.ticks += t3 - t2;
    total.ticks += t3 - t0;
    ++observation.calls;
    ++forward.calls;
    ++select.calls;
    ++total.calls;
    return action;
  }
  void on_episode_start(const dosc::sim::Simulator& sim) override {
    inner_.on_episode_start(sim);
  }

  LayerTime observation, forward, select, total;

 private:
  dosc::core::DistributedDrlCoordinator& inner_;
  const dosc::rl::ActorCritic& net_;
  std::vector<double> logits_;
  dosc::nn::Mlp::Scratch scratch_;
};

/// Times the split decision surface the batched driver calls through
/// YieldingEpisode.
class TimedAgent final : public dosc::core::BatchedDecisionAgent {
 public:
  explicit TimedAgent(dosc::core::BatchedDecisionAgent& inner) : inner_(inner) {}

  const std::vector<double>& build_observation(const dosc::sim::Simulator& sim,
                                               const dosc::sim::Flow& flow,
                                               dosc::net::NodeId node) override {
    const std::uint64_t t0 = ticks();
    const std::vector<double>& obs = inner_.build_observation(sim, flow, node);
    observation.ticks += ticks() - t0;
    ++observation.calls;
    return obs;
  }
  int decide_from_logits(const dosc::sim::Flow& flow,
                         std::span<const double> logits) override {
    const std::uint64_t t0 = ticks();
    const int action = inner_.decide_from_logits(flow, logits);
    select.ticks += ticks() - t0;
    ++select.calls;
    return action;
  }

  LayerTime observation, select;

 private:
  dosc::core::BatchedDecisionAgent& inner_;
};

/// Times the three calls the batched driver makes on each episode.
class TimedEnv final : public dosc::rl::BatchedEnv {
 public:
  explicit TimedEnv(dosc::rl::BatchedEnv& inner) : inner_(inner) {}

  bool advance_to_decision() override {
    const std::uint64_t t0 = ticks();
    const bool pending = inner_.advance_to_decision();
    advance.ticks += ticks() - t0;
    ++advance.calls;
    return pending;
  }
  void write_observation(std::span<double> out) override {
    const std::uint64_t t0 = ticks();
    inner_.write_observation(out);
    write.ticks += ticks() - t0;
    ++write.calls;
  }
  void apply_logits(std::span<const double> logits) override {
    const std::uint64_t t0 = ticks();
    inner_.apply_logits(logits);
    apply.ticks += ticks() - t0;
    ++apply.calls;
  }

  LayerTime advance, write, apply;

 private:
  dosc::rl::BatchedEnv& inner_;
};

/// Exact equality of an episode's outcome counts and delay statistics.
inline bool same_metrics(const dosc::sim::SimMetrics& a, const dosc::sim::SimMetrics& b) {
  return a.generated == b.generated && a.succeeded == b.succeeded && a.dropped == b.dropped &&
         a.drops_by_reason == b.drops_by_reason && a.decisions == b.decisions &&
         a.e2e_delay.count() == b.e2e_delay.count() && a.e2e_delay.mean() == b.e2e_delay.mean() &&
         a.e2e_delay.max() == b.e2e_delay.max();
}

}  // namespace perfbench
