// Experience collection for per-flow decision trajectories.
//
// In this problem an "episode" from the MDP's perspective is the lifetime
// of one flow: each decision some agent makes for the flow is one step, the
// shaped rewards accrue between decisions, and the trajectory terminates
// when the flow completes or is dropped (Alg. 1 collects exactly these
// (o_{t-1}, a_{t-1}, r_t, o_t) tuples). The TrajectoryBuffer accumulates
// open trajectories keyed by flow, closes them on terminal events, and
// converts finished trajectories into a flat training batch of
// (observation, action, discounted return) triples. Truncated trajectories
// (episode horizon reached before the flow terminated) bootstrap from the
// critic's value at the last observation.
//
// Storage is pooled so the recording hot path — one record_decision per
// agent decision plus one record_reward per lifecycle event — performs no
// heap allocation at steady state: trajectory slots, their step arrays and
// each step's observation buffer are recycled across flows and across
// episodes, and the flow-id index is an open-addressing table with
// backshift deletion instead of a node-allocating map. test_train_alloc
// pins the recording path allocation-free; it keeps per-step allocator
// traffic out of the trainer's rollout.
//
// Determinism: drain emits finished trajectories in completion order, and
// truncate_all closes the still-open trajectories in first-decision order
// (the pooled buffer maintains an intrusive insertion-order list). Both
// orders are pure functions of the recorded event sequence — unlike the
// pre-pool implementation, whose truncation order leaked the
// unordered_map's bucket layout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rl/actor_critic.hpp"
#include "util/rng.hpp"

namespace dosc::rl {

struct Step {
  std::vector<double> obs;
  int action = 0;
  double reward_after = 0.0;   ///< shaped reward accrued after this action
  double behavior_logp = 0.0;  ///< log pi_b(action|obs) under the acting policy
};

/// Flat training batch. `behavior_logp` is filled only when the buffer was
/// drained with `with_behavior_logp` (overlapped training's stale
/// windows): the updater applies
/// clipped-IS staleness correction per row when it is present, and a NaN
/// row marks on-policy data (weight exactly 1).
struct Batch {
  nn::Matrix obs;                      ///< [N x obs_dim]
  std::vector<int> actions;            ///< [N]
  std::vector<double> returns;         ///< [N] discounted returns (bootstrapped)
  std::vector<double> behavior_logp;   ///< [N] or empty (on-policy batch)
  std::size_t size() const noexcept { return actions.size(); }
};

class TrajectoryBuffer {
 public:
  explicit TrajectoryBuffer(double gamma);

  /// Pre-size every pool for up to `max_flows` concurrently-open
  /// trajectories of up to `max_steps_per_flow` decisions over
  /// `obs_dim`-dimensional observations. Because recycled slots are reused
  /// in release order — a permutation of the acquisition order — organic
  /// warming only guarantees each slot covers the flows *it* has hosted;
  /// reserve() grows all slots to the same shape, so the recording path is
  /// allocation-free from the first episode as long as the bounds hold
  /// (exceeding them still works, it just allocates). Existing
  /// trajectories, open or finished, are untouched.
  void reserve(std::size_t max_flows, std::size_t max_steps_per_flow, std::size_t obs_dim);

  /// Record a decision for flow `key`: the observation seen, the action
  /// taken, and (for off-policy-tolerant training) the behavior policy's
  /// log-probability of that action. Any reward reported later for this
  /// flow credits this step until the next decision supersedes it.
  /// Allocation-free once the pools have warmed to the episode's shape.
  void record_decision(std::uint64_t key, std::span<const double> obs, int action,
                       double behavior_logp = 0.0);

  /// Accrue shaped reward onto the flow's most recent decision. Ignored if
  /// the flow has no open trajectory (e.g., reward before any decision).
  void record_reward(std::uint64_t key, double reward);

  /// Close the flow's trajectory as terminated (completed or dropped).
  void finish(std::uint64_t key);

  /// Close every open trajectory as truncated (episode horizon reached),
  /// in first-decision order.
  void truncate_all();

  std::size_t completed_steps() const noexcept { return completed_steps_; }
  std::size_t open_trajectories() const noexcept { return open_count_; }

  /// Drain all finished trajectories into a batch, computing discounted
  /// returns. Truncated trajectories bootstrap with the critic's value at
  /// their last observation. The buffer keeps open trajectories. With
  /// `with_behavior_logp`, the recorded per-step behavior log-probs are
  /// copied into batch.behavior_logp (else it is left empty). Reuses
  /// `out`'s storage: allocation-free at steady-state episode shapes.
  void drain_into(Batch& out, const ActorCritic& net, std::size_t obs_dim,
                  bool with_behavior_logp = false);

  /// As drain_into, returning a fresh batch (test/tooling convenience).
  Batch drain(const ActorCritic& net, std::size_t obs_dim);

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    std::vector<Step> steps;  ///< pooled: only the first `used` are live
    std::size_t used = 0;
    bool terminated = false;
    std::uint64_t key = 0;
    std::uint32_t prev = kNil;  ///< open-list link (insertion order)
    std::uint32_t next = kNil;
  };

  std::uint32_t* table_find(std::uint64_t key) noexcept;
  std::uint32_t acquire_slot(std::uint64_t key);
  void table_insert(std::uint64_t key, std::uint32_t slot);
  void table_erase(std::uint64_t key) noexcept;
  void table_grow();
  void unlink_open(std::uint32_t slot) noexcept;
  void close_slot(std::uint32_t slot, bool terminated);

  double gamma_;
  std::vector<Slot> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> finished_;  ///< completion order
  std::vector<std::uint32_t> table_;     ///< open-addressing: slot index or kNil
  std::size_t table_mask_ = 0;
  std::size_t open_count_ = 0;
  std::uint32_t open_head_ = kNil;  ///< insertion-order list of open slots
  std::uint32_t open_tail_ = kNil;
  std::size_t completed_steps_ = 0;
  std::vector<double> returns_scratch_;
};

/// Merge per-environment batches into `out`, capping the result at
/// `max_steps` rows with a single-pass reservoir subsample over the
/// concatenated steps (rng consumption is a pure function of the input
/// sizes): the merge the trainer performs between rollout and update.
/// behavior_logp is merged iff every input batch carries it. Reuses `out`'s
/// storage.
void merge_batches_into(Batch& out, std::span<const Batch> batches, std::size_t obs_dim,
                        std::size_t max_steps, util::Rng& rng);

}  // namespace dosc::rl
