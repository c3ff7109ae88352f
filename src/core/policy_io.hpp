// Persisting trained policies: train once offline, deploy the saved network
// at every node later (the paper's offline-training / online-inference
// split). JSON keeps the format inspectable and dependency-free.
//
// Snapshots are versioned (`format_version`, current kPolicyFormatVersion)
// and carry an FNV-1a checksum over the parameter payload bits, so a
// truncated or corrupted file is rejected with a clear error instead of
// silently deploying garbage weights — the precondition for hot-swapping
// snapshots into a running decision daemon (src/serve). Legacy files
// without the two fields still load, but every load validates the
// parameter count against the declared network shape.
#pragma once

#include <cstdint>
#include <string>

#include "core/trainer.hpp"
#include "util/json.hpp"

namespace dosc::core {

/// Current snapshot format version written by save_policy.
inline constexpr std::int64_t kPolicyFormatVersion = 2;

/// FNV-1a 64-bit checksum over the little-endian IEEE-754 bit patterns of
/// the parameter vector (order-sensitive). Stable across platforms for the
/// same weights; %.17g JSON round-trips doubles exactly, so a clean
/// save/load cycle preserves it.
std::uint64_t policy_checksum(const std::vector<double>& parameters) noexcept;

/// Number of parameters an ActorCritic with this net_config holds
/// (actor + critic), or SIZE_MAX when that count overflows std::size_t.
/// Used to reject truncated parameter payloads.
std::size_t expected_parameter_count(const rl::ActorCriticConfig& config) noexcept;

/// Throws std::runtime_error with a specific message if the policy is
/// structurally unusable: zero-sized shape/degree, a shape whose parameter
/// count overflows, or a parameter count that does not match the declared
/// network shape (the signature of a truncated snapshot). Layout checks against a concrete scenario (padded
/// degree, action count) are the consumer's job — the centralized baseline
/// legitimately saves a different observation layout.
void validate_policy(const TrainedPolicy& policy);

util::Json to_json(const TrainedPolicy& policy);
/// Throws std::runtime_error on unknown future format versions, checksum
/// mismatches, shape fields that are not integers >= 1, and
/// shape/parameter-count inconsistencies.
TrainedPolicy policy_from_json(const util::Json& json);

void save_policy(const TrainedPolicy& policy, const std::string& path);
TrainedPolicy load_policy(const std::string& path);

}  // namespace dosc::core
