// Event-level invariant auditing for the flow simulator.
//
// The InvariantAuditor plugs into both simulator observation surfaces — it
// is an AuditHook (raw event stream, sim/audit.hpp) and a FlowObserver
// (flow lifecycle) — and validates, at every event, the conservation laws
// the paper's results rest on:
//
//   * capacity: node/link usage stays within [0, capacity + eps];
//   * flow conservation: generated == succeeded + dropped + in-flight,
//     at all times, and in-flight == 0 once the event queue drains;
//   * event order: dispatch times never decrease, and simultaneous events
//     dispatch in scheduling (seq) order;
//   * delay decomposition: a completed flow's e2e delay equals its summed
//     processing + link + parking components plus a non-negative startup
//     wait bounded by the startup delays of its traversed components
//     (exact equality when the catalog has no startup delays);
//   * deadlines: completions happen within tau_f, expiry drops at exactly
//     t_in + tau_f, and live flows never see post-deadline events;
//   * instance lifecycle: instances are created only by a flow decision
//     with ready_time = now + startup delay, removed only by an idle
//     timeout that actually waited idle_timeout with no active flows (or
//     by a node failure), and all slots are empty at episode end;
//   * accounting reconciliation: completions/drops seen by the observer
//     match SimMetrics exactly.
//
// Usage: attach(sim) installs the audit hook; pass the auditor (directly or
// via another observer) as Simulator::run's FlowObserver so the lifecycle
// checks and the SimMetrics reconciliation can run. Violations are
// collected, not thrown — inspect ok() / violations() / report() after the
// run. The per-event cost is O(V + E + V*C); this is a validation tool, not
// a production-path feature.
//
// Sampled mode (large scenarios): the full-state sweeps — the O(V+E)
// capacity scan and the O(V*C) instance-lifecycle diff — dominate on
// 100-1000-node corpus topologies, so once V+E or V*C exceeds
// AuditorOptions::full_sweep_cells they run every `sample_stride` events
// instead of every event, and instance-change *cause attribution* is
// disabled (between samples many events fire, so a change can no longer be
// pinned on one event). Everything O(1)-per-event keeps running unsampled:
// event ordering, flow conservation, the flow-local arrival/processing/
// expiry checks, the delay decomposition, deadline timing, and the full
// episode-end reconciliation (drained queue, zero usage, empty instance
// table, SimMetrics match).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/digest.hpp"
#include "sim/audit.hpp"
#include "sim/coordinator.hpp"
#include "sim/simulator.hpp"

namespace dosc::check {

struct AuditorOptions {
  /// Slack on floating-point comparisons (capacities, delay sums).
  double eps = 1e-6;
  /// At most this many violation messages are kept (all are counted).
  std::size_t max_recorded = 32;
  /// Full-state sweeps run per event only while V+E and V*C are at or
  /// below this; larger scenarios degrade to sampled mode (see above).
  std::size_t full_sweep_cells = 4096;
  /// Sampled mode: full-state sweep period in events.
  std::size_t sample_stride = 64;
};

class InvariantAuditor final : public sim::AuditHook, public sim::FlowObserver {
 public:
  explicit InvariantAuditor(AuditorOptions options = {}) : options_(options) {}

  /// Install this auditor as the simulator's audit hook. The caller must
  /// additionally pass it (or forward to it) as run()'s FlowObserver.
  void attach(sim::Simulator& sim) { sim.set_audit_hook(this); }

  // --- AuditHook ---
  void on_episode_start(const sim::Simulator& sim) override;
  void on_event(const sim::Simulator& sim, const sim::SimEvent& event) override;
  void on_episode_end(const sim::Simulator& sim) override;

  // --- FlowObserver ---
  void on_completed(const sim::Flow& flow, double time) override;
  void on_dropped(const sim::Flow& flow, sim::DropReason reason, double time) override;
  void on_component_processed(const sim::Flow& flow, net::NodeId node, double time) override;
  void on_forwarded(const sim::Flow& flow, net::NodeId from, net::LinkId link,
                    double time) override;
  void on_parked(const sim::Flow& flow, net::NodeId node, double time) override;

  // --- results ---
  bool ok() const noexcept { return total_violations_ == 0; }
  /// True when the attached scenario is big enough that the full-state
  /// sweeps are stride-sampled (set at episode start).
  bool sampled_mode() const noexcept { return sampled_; }
  std::uint64_t total_violations() const noexcept { return total_violations_; }
  const std::vector<std::string>& violations() const noexcept { return violations_; }
  std::uint64_t events_audited() const noexcept { return events_audited_; }
  std::uint64_t completions_seen() const noexcept { return completions_seen_; }
  std::uint64_t drops_seen() const noexcept { return drops_seen_; }
  /// One-line summary, or a multi-line listing of recorded violations.
  std::string report() const;

 private:
  /// Per-live-flow accumulators for the delay decomposition.
  struct FlowTrack {
    double proc_sum = 0.0;     ///< summed d_c of traversed components
    double link_sum = 0.0;     ///< summed d_l of traversed links
    double park_sum = 0.0;     ///< summed park_step waits
    double startup_cap = 0.0;  ///< upper bound on accumulated startup waits
  };
  struct InstanceSnap {
    bool exists = false;
    double ready_time = 0.0;
    std::uint32_t active = 0;
    double idle_since = 0.0;  ///< time `active` last hit 0
  };

  void fail(double time, const std::string& message);
  void check_capacities(const sim::Simulator& sim, double time);
  void check_conservation(const sim::Simulator& sim, double time);
  /// Attribute instance-state deltas since the previous snapshot to the
  /// event dispatched between the snapshots (`cause`). With attribute ==
  /// false (sampled mode) the snapshots are refreshed without blaming any
  /// single event for the changes.
  void diff_instances(const sim::Simulator& sim, const sim::SimEvent* cause, double now,
                      bool attribute);

  AuditorOptions options_;
  const sim::Simulator* sim_ = nullptr;

  std::vector<std::string> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t events_audited_ = 0;
  std::uint64_t completions_seen_ = 0;
  std::uint64_t drops_seen_ = 0;

  double last_time_ = 0.0;
  std::uint64_t last_seq_ = 0;
  bool saw_event_ = false;
  bool sampled_ = false;
  sim::SimEvent last_event_{};

  std::unordered_map<sim::FlowId, FlowTrack> tracks_;
  std::unordered_map<sim::FlowId, double> last_arrival_;  ///< decision times
  std::vector<InstanceSnap> instances_;
  std::size_t num_components_ = 0;
};

/// Fans one audit-hook slot out to several hooks (e.g. InvariantAuditor +
/// EventDigest on the same run). Hooks are invoked in insertion order.
class HookChain final : public sim::AuditHook {
 public:
  HookChain() = default;
  HookChain(std::initializer_list<sim::AuditHook*> hooks) : hooks_(hooks) {}
  void add(sim::AuditHook* hook) { hooks_.push_back(hook); }

  void on_episode_start(const sim::Simulator& sim) override {
    for (sim::AuditHook* h : hooks_) h->on_episode_start(sim);
  }
  void on_event(const sim::Simulator& sim, const sim::SimEvent& event) override {
    for (sim::AuditHook* h : hooks_) h->on_event(sim, event);
  }
  void on_episode_end(const sim::Simulator& sim) override {
    for (sim::AuditHook* h : hooks_) h->on_episode_end(sim);
  }

 private:
  std::vector<sim::AuditHook*> hooks_;
};

}  // namespace dosc::check
