// Actor-critic network pair (Sec. IV-C2).
//
// Two separate MLPs, as in the paper: the actor maps an observation to a
// categorical distribution over the Delta_G + 1 actions; the critic
// estimates the observation's long-term value. Inference (predict /
// sample_action / greedy_action) is const and thread-safe, so one trained
// ActorCritic can be shared read-only by the DRL agents deployed at every
// node — exactly the paper's "copy of the same neural network" deployment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace dosc::rl {

struct ActorCriticConfig {
  std::size_t obs_dim = 0;
  std::size_t num_actions = 0;
  std::vector<std::size_t> hidden{256, 256};  ///< paper: 2x256 tanh units
  std::uint64_t seed = 0;
};

/// Numerically stable softmax of one logit row.
std::vector<double> softmax(std::span<const double> logits);
/// As softmax(), but writing into a caller-owned buffer (resized to fit):
/// allocation-free once the buffer has capacity. The batch update uses this
/// per row.
void softmax_into(std::span<const double> logits, std::vector<double>& probs);
/// log(softmax(logits))[index], computed stably.
double log_softmax_at(std::span<const double> logits, std::size_t index);
/// Entropy of softmax(logits) in nats. Computes in thread-local scratch:
/// allocation-free at steady state.
double softmax_entropy(std::span<const double> logits);

class ActorCritic {
 public:
  explicit ActorCritic(const ActorCriticConfig& config);

  const ActorCriticConfig& config() const noexcept { return config_; }

  // --- inference (const, thread-safe) ---
  /// Softmax policy over the actions. Returns a reference to a thread-local
  /// buffer (allocation-free at steady state); the contents are valid until
  /// this thread's next action_probs/sample_action call. Copy to retain.
  const std::vector<double>& action_probs(std::span<const double> obs) const;
  /// Samples from action_probs without materialising a fresh vector: an
  /// inline CDF walk over the softmax scratch that consumes the engine
  /// exactly like util::Rng::categorical, so sampling streams are
  /// bit-identical to the allocating version.
  int sample_action(std::span<const double> obs, util::Rng& rng) const;
  /// As sample_action, additionally writing log pi(action|obs) — the
  /// behavior log-probability off-policy-tolerant training records per
  /// step. Pure extra arithmetic on the softmax scratch: the rng stream
  /// and the returned action are bit-identical to sample_action.
  int sample_action(std::span<const double> obs, util::Rng& rng, double* logp) const;
  int greedy_action(std::span<const double> obs) const;
  /// Sampling/argmax from an already-computed actor logit row (batched
  /// rollout: one fused predict_batch forward, then per-row action
  /// selection). sample_action(obs, ...) is predict_row +
  /// sample_action_from_logits — same code path, so rng consumption and the
  /// chosen action are bit-identical whichever way the logits were produced.
  static int sample_action_from_logits(std::span<const double> logits, util::Rng& rng,
                                       double* logp = nullptr);
  static int greedy_action_from_logits(std::span<const double> logits);
  double value(std::span<const double> obs) const;

  // --- training access ---
  nn::Mlp& actor() noexcept { return actor_; }
  nn::Mlp& critic() noexcept { return critic_; }
  const nn::Mlp& actor() const noexcept { return actor_; }
  const nn::Mlp& critic() const noexcept { return critic_; }

  /// Flat parameters of actor followed by critic (snapshot / deploy).
  std::vector<double> get_parameters() const;
  void set_parameters(const std::vector<double>& flat);

 private:
  ActorCriticConfig config_;
  nn::Mlp actor_;
  nn::Mlp critic_;
};

}  // namespace dosc::rl
