// Vectorized multi-env rollout: one fused actor forward per round across
// every episode currently paused at a decision point.
//
// Sequential rollout services each coordination decision with a batch-1
// GEMV (the PR 5 fast path), which at the paper's 2x256 MLP is memory-bound
// on the weight stream: the GEMM regime where the tiled kernels reach their
// GFLOP/s ceiling needs multiple rows. BatchedRollout inverts control in
// the episode loop — each environment runs to its next decision and yields
// (Simulator::advance_to_decision behind the BatchedEnv interface), the
// pending observations are gathered as packed rows into one reused matrix,
// a single Mlp::predict_batch computes every logit row, and each
// environment then samples its action with its own Rng stream and resumes.
// predict_batch alone picks the kernel for the round's rows.
//
// Determinism: episodes are independent — each keeps its own engine, RNG
// streams, and decision order, and predict_batch is bit-identical per row
// to predict_row — so per-episode SimMetrics and EventDigests are
// bit-identical to the sequential driver at every batch width, and a round
// with a single pending row takes the GEMV path (B=1 reduces exactly to
// sequential).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nn/mlp.hpp"

namespace dosc::rl {

/// One concurrently driven episode, as seen by BatchedRollout. Implemented
/// outside rl (core's YieldingEpisode wraps sim::Simulator) so this layer
/// stays simulator-free.
///
/// Drain contract: once advance_to_decision() has returned false, the
/// driver makes no further call on that env. An env may therefore release
/// its episode's state (simulator, buffers) inside that final call, and a
/// streaming source may hand the same object out again for a new episode.
class BatchedEnv {
 public:
  virtual ~BatchedEnv() = default;
  /// Run to the next decision point. True: a decision is pending and
  /// write_observation/apply_logits are valid. False: the episode drained.
  virtual bool advance_to_decision() = 0;
  /// Write the pending decision's observation row (exactly obs_dim values).
  virtual void write_observation(std::span<double> out) = 0;
  /// Select and apply the pending decision's action from the actor's logit
  /// row; the environment samples with its own Rng stream.
  virtual void apply_logits(std::span<const double> logits) = 0;
};

struct BatchedRolloutStats {
  std::uint64_t decisions = 0;    ///< rows serviced across all rounds
  std::uint64_t rounds = 0;       ///< decision rounds driven
  std::uint64_t gemv_rounds = 0;  ///< rounds predict_batch served entirely by GEMV
  std::uint64_t gemv_rows = 0;    ///< rows predict_batch served by GEMV
  std::size_t max_rows = 0;       ///< widest round
};

/// Pulls the next environment for the streaming run() flavor. Returns
/// nullptr when the stream is exhausted; no further calls are made after
/// that. An episode that completes inside its first advance_to_decision
/// (zero decisions) is consumed without ever joining a round — the caller
/// still owns its finish/readout.
using BatchedEnvSource = std::function<BatchedEnv*()>;

/// Drives a set of environments to completion with fused decision forwards.
/// Buffers (packed observation matrix, logits, forward scratch) are owned
/// and reused across run() calls: allocation-free at a steady batch shape.
/// One instance per driving thread; the actor is read shared and const.
class BatchedRollout {
 public:
  BatchedRollout(const nn::Mlp& actor, std::size_t obs_dim);

  /// Run every environment to completion (null entries are skipped).
  /// Per round, the achieved batch width is recorded into the
  /// `rl.rollout.batch_rows` telemetry histogram when telemetry is enabled.
  BatchedRolloutStats run(std::span<BatchedEnv* const> envs);

  /// Streaming flavor: keeps up to `width` environments in flight, pulling
  /// a replacement from `source` whenever an episode drains, until the
  /// source is exhausted and every pulled episode has completed. Sustains
  /// the nominal batch width across an episode stream instead of decaying
  /// into a narrow tail at each episode boundary. Per-episode results are
  /// bit-identical to run() and to the sequential driver — episodes are
  /// independent, so refill timing cannot leak between them.
  BatchedRolloutStats run(std::size_t width, const BatchedEnvSource& source);

 private:
  BatchedRolloutStats drive(std::size_t width, const BatchedEnvSource* source);

  const nn::Mlp& actor_;
  std::size_t obs_dim_;
  std::vector<double> obs_;         ///< packed [rows x obs_dim] gather
  std::vector<double> logits_;      ///< [rows x out_dim] batched forward
  nn::Mlp::Scratch scratch_;
  std::vector<BatchedEnv*> pending_;
  std::vector<BatchedEnv*> next_;
};

}  // namespace dosc::rl
