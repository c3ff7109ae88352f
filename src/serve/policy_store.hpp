// Non-blocking policy snapshot publication for the decision daemon.
//
// The hot-swap requirement (ROADMAP: "hot-swaps policy weights from the
// online trainer without dropping requests") is exactly the epoch-published
// snapshot problem, and the implementation — util::EpochPublished<T>, a
// small ring of refcounted epoch slots with a wait-free acquire — lives in
// src/util/epoch_published.hpp. This header keeps the serve-side pieces:
// the ServePolicy snapshot type, its validating factory, and the
// PolicyStore ring they are published through.
#pragma once

#include <cstdint>
#include <memory>

#include "core/observation.hpp"
#include "core/trainer.hpp"
#include "rl/actor_critic.hpp"
#include "util/epoch_published.hpp"

namespace dosc::serve {

/// One deployable policy snapshot as served by the daemon: the actor-critic
/// network plus the metadata replies carry. Immutable after construction;
/// shared read-only across all decide workers via EpochPublished.
struct ServePolicy {
  rl::ActorCritic net;
  std::uint32_t version = 0;     ///< monotone publish id, echoed in replies
  std::size_t max_degree = 0;    ///< padded degree of the observation layout
  std::uint64_t checksum = 0;    ///< core::policy_checksum of the parameters

  ServePolicy(const core::TrainedPolicy& policy, std::uint32_t version);
};

/// Build a publishable snapshot after validating the policy against the
/// serving scenario: structural validation (parameter count), the
/// distributed observation layout (obs_dim == observation_dim(max_degree),
/// num_actions == max_degree + 1), and degree compatibility with the
/// network. Pre-warms the gemv PackCache so the first post-swap decide
/// does not pay the repack. Throws std::runtime_error on mismatch.
std::unique_ptr<const ServePolicy> make_serve_policy(const core::TrainedPolicy& policy,
                                                     std::size_t network_max_degree,
                                                     std::uint32_t version);

using PolicyStore = util::EpochPublished<ServePolicy>;

}  // namespace dosc::serve
