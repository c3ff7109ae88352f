// Seeded scenario fuzzing within paper-realistic bounds.
//
// ScenarioFuzzer::make(seed) deterministically generates a random but valid
// Scenario: a connected topology (random spanning tree plus extra edges), a
// random component catalog (processing/startup/idle parameters), random
// service chains, ingress/egress placement, traffic pattern, flow
// templates, episode horizon, and optionally an injected substrate failure.
// All draws come from one Rng seeded by `seed`, so a failing seed can be
// replayed exactly.
//
// The bounds (fixed, in fuzzer.cpp) cover the neighbourhood of the paper's
// evaluation setup (Sec. V-A1) but are deliberately wider — short
// deadlines, tight capacities, startup delays and failures included — so
// the fuzzed runs exercise every drop path and the instance lifecycle, not
// just the happy path. Generated scenarios are small (4-12 nodes) and
// short: the differential runner executes each one four times under the
// O(V*C)-per-event auditor.
#pragma once

#include <cstdint>

#include "sim/scenario.hpp"

namespace dosc::check {

class ScenarioFuzzer {
 public:
  /// Deterministically generate the scenario for this fuzz seed.
  sim::Scenario make(std::uint64_t seed) const;
};

}  // namespace dosc::check
