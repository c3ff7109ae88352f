// Differential coordinator validation.
//
// run_differential executes the SAME (scenario, seed) episode once per
// coordination algorithm — distributed DRL, central DRL, GCASP, shortest
// path — each run under a fresh InvariantAuditor and EventDigest, then
// cross-checks the accounting between the runs.
//
// The load-bearing cross-run invariant: traffic arrivals draw from
// dedicated RNG streams that coordinator decisions never consume, so for a
// fixed (scenario, seed) every coordinator faces the IDENTICAL arrival
// stream and must report the identical `generated` count. An algorithm (or
// simulator path) that consumes traffic randomness, loses flows, or
// double-counts shows up as a differential mismatch even when each
// individual run looks self-consistent.
//
// The DRL coordinators run with small randomly initialised policies
// (inference only): for invariant checking, an arbitrary-but-deterministic
// policy exercises the simulator just as well as a trained one, and its
// decisions differ enough from the heuristics to diversify the event
// streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/auditor.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace dosc::check {

struct CoordinatorRun {
  std::string name;
  sim::SimMetrics metrics;
  std::uint64_t digest = 0;   ///< golden event-stream digest of this run
  std::uint64_t events = 0;   ///< events dispatched
  std::uint64_t violations = 0;
  std::vector<std::string> violation_messages;
};

struct DifferentialResult {
  std::vector<CoordinatorRun> runs;
  /// Cross-run accounting mismatches (empty when consistent).
  std::vector<std::string> mismatches;

  bool ok() const noexcept {
    if (!mismatches.empty()) return false;
    for (const CoordinatorRun& run : runs) {
      if (run.violations != 0) return false;
    }
    return true;
  }
  /// Per-run summary table plus any violations/mismatches.
  std::string report() const;
};

/// Run all four coordinators on the scenario under the default auditor,
/// all at simulator seed 1 (same capacities, same traffic); the DRL
/// policies are initialised from weight seeds 42 (distributed) and 43
/// (central).
DifferentialResult run_differential(const sim::Scenario& scenario);

}  // namespace dosc::check
