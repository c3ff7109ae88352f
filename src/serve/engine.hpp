// Per-worker decision pipeline: wire request -> observation row -> action.
//
// The daemon answers coordination queries against a state oracle — a
// Simulator constructed from the serving scenario (fixed capacity seed)
// that is never run: it supplies exactly the local state the paper's
// agents observe (free capacities, instance availability, shortest-path
// slack) at the serving snapshot. Each worker owns one DecisionEngine: an
// ObservationBuilder bound to the shared oracle (the PR 5 CSR fast path,
// bound once per request batch's simulator — here once, at construction)
// plus reusable row/scratch buffers, so a steady-state decide performs no
// heap allocation.
//
// decide() runs the bound rows through one Mlp::predict_batch, which picks
// the kernel, then takes each row's greedy action with
// rl::ActorCritic::greedy_action_from_logits. Every row's logits are
// bit-identical to Mlp::predict() at the dispatched ISA whichever kernel
// served them, so a decision never depends on what it was batched with —
// the tests compare every served action with per-row greedy_action.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/observation.hpp"
#include "serve/policy_store.hpp"
#include "serve/wire.hpp"
#include "sim/simulator.hpp"

namespace dosc::serve {

class DecisionEngine {
 public:
  /// `oracle` must outlive the engine and never be run; `max_degree` is the
  /// policy's padded observation degree (>= the oracle network's degree).
  DecisionEngine(const sim::Simulator& oracle, std::size_t max_degree,
                 std::size_t max_batch);

  std::size_t obs_dim() const noexcept { return obs_.dim(); }
  std::size_t max_batch() const noexcept { return max_batch_; }

  /// Validate the request against the scenario and build its observation
  /// into row slot `row` (< max_batch). False = semantically invalid
  /// (unknown node/service, out-of-range chain position, non-finite or
  /// non-positive flow descriptor) — the caller replies kInvalidRequest.
  bool bind(const wire::Request& request, std::size_t row);
  /// The observation bind() built into row slot `row`.
  std::span<const double> observation(std::size_t row) const noexcept {
    return {rows_.data() + row * obs_.dim(), obs_.dim()};
  }

  /// Greedy actions for rows [0, batch) from one predict_batch forward;
  /// actions is resized to batch. Returns predict_batch's answer: the
  /// number of rows the GEMV kernels served.
  std::size_t decide(const rl::ActorCritic& net, std::size_t batch, std::vector<int>& actions);

 private:
  const sim::Simulator& oracle_;
  core::ObservationBuilder obs_;
  std::size_t max_batch_;
  std::vector<double> rows_;    ///< [max_batch x obs_dim], row-major
  std::vector<double> logits_;  ///< [batch x num_actions] scratch
  nn::Mlp::Scratch scratch_;
};

}  // namespace dosc::serve
