// Episode metrics: the paper's objective (Eq. 1, percentage of successful
// flows) plus the diagnostics used across the evaluation (end-to-end delay
// of completed flows, drop reason breakdown, decision counts/latency).
//
// Per-decision timing is recorded by the *simulator* (one place for all
// algorithms, DRL and baselines alike) when Simulator::enable_decision_timing
// is on, into a log-scale telemetry histogram: it keeps the count, mean,
// min and max, and Fig. 9b reads tail latency (p50/p99) from it too. The
// central baseline's periodic rule refresh is timed separately
// (rule_update_time), since that — not its cheap per-flow rule lookup — is
// its "inference".
#pragma once

#include <array>
#include <cstdint>

#include "sim/flow.hpp"
#include "telemetry/histogram.hpp"
#include "util/stats.hpp"

namespace dosc::sim {

struct SimMetrics {
  std::uint64_t generated = 0;  ///< flows injected at ingress nodes
  std::uint64_t succeeded = 0;
  std::uint64_t dropped = 0;
  std::array<std::uint64_t, kNumDropReasons> drops_by_reason{};  ///< by DropReason

  util::RunningStats e2e_delay;  ///< of successful flows only (ms)
  /// Per-decision wall clock (us), if timed.
  telemetry::Histogram decision_time{telemetry::latency_histogram_config()};
  /// Centralized rule refresh wall clock (us), if timed — the central
  /// baseline's Fig. 9b "decision"; empty for distributed algorithms.
  telemetry::Histogram rule_update_time{telemetry::latency_histogram_config()};
  std::uint64_t decisions = 0;

  void record_success(double delay) noexcept {
    ++succeeded;
    e2e_delay.add(delay);
  }
  void record_drop(DropReason reason) noexcept {
    ++dropped;
    ++drops_by_reason[static_cast<std::size_t>(reason)];
  }
  void record_decision_time(double us) noexcept { decision_time.add(us); }
  void record_rule_update_time(double us) noexcept { rule_update_time.add(us); }

  /// Objective o_f = |F_succ| / (|F_succ| + |F_drop|); 0 when undefined.
  double success_ratio() const noexcept {
    const std::uint64_t total = succeeded + dropped;
    return total > 0 ? static_cast<double>(succeeded) / static_cast<double>(total) : 0.0;
  }
};

}  // namespace dosc::sim
