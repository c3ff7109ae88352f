// Flow-level discrete-event network simulator (the paper's coord-sim).
//
// Continuous time in ms; events are ordered by (time, insertion sequence)
// so simultaneous events resolve deterministically. Flows are fluid streams
// (Sec. III-A): a flow occupies r_c(lambda_f) at a node for the processing
// delay plus its own duration, and lambda_f on a link for the link delay
// plus its duration. Capacity violations, invalid actions, and deadline
// expiry drop the flow; expiry releases all resources it still blocks.
//
// Storage is pooled for million-flow episodes: flows and resource holds
// live in slot-map pools with per-slot generation counters and free lists,
// so insert/erase is O(1) and steady state performs no allocation. Events
// carry generation-tagged handles; events whose target died are skipped at
// pop time (lazy cancellation) and periodically compacted out of the heap,
// which keeps peak heap depth proportional to the number of *live* flows.
// Skipping only elides events the previous engine dispatched as no-ops, so
// the dispatch order of live events — and therefore SimMetrics and every
// observer/coordinator callback — is unchanged.
//
// One Simulator instance runs exactly one episode: construct from a shared
// Scenario with a seed (which draws capacities and drives traffic), then
// call run(). All coordination algorithms — the distributed DRL agents and
// the three baselines — plug in through the Coordinator interface.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/shortest_paths.hpp"
#include "sim/audit.hpp"
#include "sim/coordinator.hpp"
#include "sim/flow.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace dosc::sim {

class Simulator {
 public:
  Simulator(const Scenario& scenario, std::uint64_t seed);

  /// Run the episode to completion. Must be called at most once.
  /// Equivalent to start(); advance_until(+inf); finish().
  SimMetrics run(Coordinator& coordinator, FlowObserver* observer = nullptr);

  // --- stepwise driving: run() wraps these, the perfbench sim workload
  // calls advance_until in 10 ms chunks, and advance_to_decision (below)
  // is built on it ---
  /// Seed the event queue and fire the episode-start callbacks. Must be
  /// called at most once, before advance_until/finish.
  void start(Coordinator& coordinator, FlowObserver* observer = nullptr);
  /// Dispatch every queued event with time strictly below `limit`.
  void advance_until(double limit);
  /// Fire the episode-end callbacks, flush telemetry, return the metrics.
  SimMetrics finish();

  // --- decision-yield driving (batched rollout; rl/batched_rollout.hpp) ---
  //
  // Inverts control at the decision point: instead of the engine calling
  // Coordinator::decide synchronously inside the flow-arrival handler, the
  // episode runs until a decision is due, pauses with the (flow, node) pair
  // exposed, and resumes once the caller supplies the action. Everything
  // else — event order, metrics counting, audit/digest hooks — is the
  // run() path verbatim, so an episode driven this way is bit-identical to
  // run() given identical actions. Decision timing (enable_decision_timing)
  // is not recorded for yielded decisions: the wall time between yield and
  // resume measures the batching driver, not the policy.
  /// Advance until a coordinator decision is due or `limit` is reached.
  /// Returns true when paused at a decision (then pending_flow()/
  /// pending_node() are valid and resume_with_action() must be called
  /// before advancing again); false when no decision occurred.
  bool advance_to_decision(double limit);
  bool decision_pending() const noexcept { return decision_pending_; }
  /// The flow awaiting a decision. Valid only while decision_pending().
  Flow& pending_flow() {
    return flow_slots_[handle_slot(pending_handle_)].flow;
  }
  net::NodeId pending_node() const noexcept { return pending_node_; }
  /// Apply the caller's action for the pending decision and clear it.
  void resume_with_action(int action);

  /// Time every coordinator decision (and periodic rule refresh) into
  /// SimMetrics::decision_time / rule_update_time. One timing point for all
  /// algorithms — replaces the per-coordinator timing members. Off by
  /// default: an untimed run performs no clock reads on the decide path.
  void enable_decision_timing(bool on) noexcept { time_decisions_ = on; }

  /// Install an event-level audit hook (validation / digest tooling; see
  /// sim/audit.hpp). Must be set before run(); pass nullptr to detach. The
  /// event loop pays one pointer test per event when no hook is installed.
  void set_audit_hook(AuditHook* hook) noexcept { audit_hook_ = hook; }

  // --- state accessors (valid inside Coordinator/FlowObserver callbacks) ---
  double time() const noexcept { return time_; }
  /// Process-unique identity of this Simulator instance (monotonic
  /// construction counter, never 0). Episode-scoped caches key on this
  /// rather than the object address: per-seed capacity randomization makes
  /// simulator state instance-specific, and a new Simulator can legally
  /// reuse a destroyed one's address.
  std::uint64_t instance_id() const noexcept { return instance_id_; }
  const Scenario& scenario() const noexcept { return scenario_; }
  const net::Network& network() const noexcept { return network_; }
  const net::ShortestPaths& shortest_paths() const noexcept {
    return scenario_.shortest_paths();
  }
  const ServiceCatalog& catalog() const noexcept { return scenario_.catalog(); }
  const SimMetrics& metrics() const noexcept { return metrics_; }

  /// Compute resources currently consumed / still free at a node. A failed
  /// node offers no capacity, so its free capacity reads <= 0 — this is the
  /// only way agents "see" failures, matching capacity monitoring.
  double node_used(net::NodeId v) const { return node_used_.at(v); }
  double node_free(net::NodeId v) const {
    return (node_down_[v] ? 0.0 : network_.node(v).capacity) - node_used_.at(v);
  }
  /// Data rate currently on / still free of a link (shared both directions).
  double link_used(net::LinkId l) const { return link_used_.at(l); }
  double link_free(net::LinkId l) const {
    return (link_down_[l] ? 0.0 : network_.link(l).capacity) - link_used_.at(l);
  }
  bool node_failed(net::NodeId v) const { return node_down_.at(v) != 0; }
  bool link_failed(net::LinkId l) const { return link_down_.at(l) != 0; }

  /// x_{c,v}(t): an instance of c exists at v (possibly still starting up).
  bool instance_available(net::NodeId v, ComponentId c) const {
    return instances_.at(instance_index(v, c)).exists;
  }

  // --- audit accessors (cheap snapshots for invariant checking) ---
  /// Flows generated but neither completed nor dropped yet.
  std::size_t num_active_flows() const noexcept { return live_flows_; }
  /// The live flow with this id, or nullptr once completed/dropped. Scans
  /// the pool (O(peak live flows)) — validation-tooling use only; the event
  /// loop itself addresses flows by pool handle in O(1).
  const Flow* find_flow(FlowId id) const {
    for (const FlowSlot& slot : flow_slots_) {
      if (slot.flow.alive && slot.flow.id == id) return &slot.flow;
    }
    return nullptr;
  }
  /// Lifecycle state of the (v, c) instance slot.
  struct InstanceState {
    bool exists = false;
    double ready_time = 0.0;  ///< startup completes at this time
    std::uint32_t active = 0; ///< flows currently being processed here
  };
  InstanceState instance_state(net::NodeId v, ComponentId c) const {
    const Instance& i = instances_.at(instance_index(v, c));
    return {i.exists, i.ready_time, i.active};
  }
  /// Events dispatched so far, by EventKind. Lazily cancelled (skipped)
  /// events are not counted here; see EngineStats::events_skipped.
  const std::array<std::uint64_t, kNumEventKinds>& events_by_kind() const noexcept {
    return events_by_kind_;
  }

  /// Storage/event-engine counters for benchmarking and boundedness tests.
  struct EngineStats {
    std::size_t peak_event_heap = 0;   ///< max simultaneous queued events
    std::size_t peak_live_flows = 0;   ///< max simultaneous live flows
    std::size_t flow_slots = 0;        ///< flow pool slots ever created
    std::size_t hold_slots = 0;        ///< hold pool slots ever created
    std::uint64_t flows_recycled = 0;  ///< flow emplacements into reused slots
    std::uint64_t holds_recycled = 0;  ///< hold acquisitions into reused slots
    std::uint64_t events_skipped = 0;  ///< stale events dropped at pop time
    std::uint64_t heap_compactions = 0;
  };
  EngineStats engine_stats() const noexcept {
    return {peak_event_heap_, peak_live_flows_, flow_slots_.size(), holds_.size(),
            flows_recycled_, holds_recycled_, events_skipped_, heap_compactions_};
  }

  /// True once the flow traversed its whole chain (c_f = ∅).
  bool fully_processed(const Flow& flow) const {
    return flow.chain_pos >= service_of(flow).length();
  }
  const Service& service_of(const Flow& flow) const {
    return catalog().service(flow.service);
  }
  /// r_{c_f}(lambda_f): demand of the requested component; 0 if done.
  double component_demand(const Flow& flow) const;
  /// Currently requested component; throws if the flow is fully processed.
  ComponentId requested_component(const Flow& flow) const;

 private:
  // Event kinds and the event record are public (sim/audit.hpp) so audit
  // hooks can observe the raw stream; the queue stays private.
  using Event = SimEvent;

  /// Ring node: the ordering key plus a handle into the payload pool. The
  /// ring moves 24-byte nodes instead of full SimEvents — at soak depths
  /// (thousands of queued events) the queue is the event loop's dominant
  /// cost, and it is pure memory traffic.
  struct HeapNode {
    double time;
    std::uint64_t seq;
    std::uint32_t payload;  ///< index into event_pool_
  };
  static bool event_before(const Event& x, const Event& y) noexcept {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  // --- generation-tagged pool handles: (generation << 32) | slot ---
  static constexpr std::uint64_t make_handle(std::uint32_t slot,
                                             std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(generation) << 32) | slot;
  }
  static constexpr std::uint32_t handle_slot(std::uint64_t h) noexcept {
    return static_cast<std::uint32_t>(h);
  }
  static constexpr std::uint32_t handle_generation(std::uint64_t h) noexcept {
    return static_cast<std::uint32_t>(h >> 32);
  }

  /// A pooled flow. `generation` invalidates handles (and thereby pending
  /// events) when the slot is recycled; `pending_events` counts this flow's
  /// queued kFlowArrival/kProcessingDone/kFlowExpiry events so erasing the
  /// flow can account the exact number of newly stale events in the heap.
  struct FlowSlot {
    Flow flow;
    std::uint32_t generation = 0;
    std::uint32_t pending_events = 0;
  };

  /// A pooled resource hold. Releasing bumps `generation`, lazily cancelling
  /// the pending kHoldRelease timer (it skips as stale at pop), and returns
  /// the slot to the free list.
  struct Hold {
    bool is_node = true;
    std::uint32_t target = 0;  ///< node or link id
    double amount = 0.0;
    bool active = false;
    std::uint32_t generation = 0;
  };

  struct Instance {
    bool exists = false;
    double ready_time = 0.0;
    std::uint32_t active = 0;     ///< flows currently pinning the instance
    std::uint64_t idle_epoch = 0; ///< invalidates stale idle-timeout events
  };

  std::size_t instance_index(net::NodeId v, ComponentId c) const {
    return static_cast<std::size_t>(v) * catalog().num_components() + c;
  }

  void schedule(double time, EventKind kind, FlowId flow = 0, std::uint32_t a = 0,
                std::uint32_t b = 0, std::uint64_t h = 0);
  /// Schedule an event addressed to a live flow (tags it with the flow's
  /// pool handle and counts it as pending).
  void schedule_flow_event(double time, EventKind kind, Flow& flow,
                           std::uint32_t a = 0);

  Flow& emplace_flow();
  void erase_flow(Flow& flow);
  Flow& flow_of(const Event& event) {
    return flow_slots_[handle_slot(event.h)].flow;
  }
  /// True if the event's target died since it was scheduled (lazy deletion).
  bool event_is_stale(const Event& event) const;
  /// Amortised removal of stale events once they dominate the heap.
  void maybe_compact_heap();

  // --- calendar event queue ---
  //
  // A single binary heap over thousands of queued events pays an L2-latency
  // pointer chase per sift level on every pop; at soak load that was ~2/3
  // of the event loop. Instead, events are appended (O(1), unsorted) to a
  // ring of fixed-width time buckets, and only the *current* bucket's
  // events live in a small 4-ary min-heap ("near heap") that stays
  // L1-resident. Ordering is exactly the former heap's (time, seq): the
  // near heap orders within the current bucket, and every event in a later
  // bucket has a strictly later bucket index, hence a later time.
  // Same-"year" aliasing from the modulo ring mapping is resolved at drain
  // time: a bucket keeps events whose true bucket index is still in the
  // future. Large gaps never cost more than one ring sweep: if a full wrap
  // finds nothing due, the queue jumps straight to the earliest bucket.
  //
  // The near heap stores full SimEvents (it is small, so the wider moves
  // stay in L1), while ring buckets store 24-byte nodes with the payload in
  // a recycled pool — so an event scheduled into the current bucket (the
  // common case under load, e.g. chained traffic arrivals) never touches
  // the pool, and a pop is pool-free always.
  static std::uint64_t bucket_index_of(double time) noexcept;
  std::uint32_t acquire_event_slot();
  void queue_push(const Event& event);
  /// Advance the bucket cursor until the near heap is non-empty.
  /// Precondition: ring_count_ > 0.
  void queue_advance();
  void drain_current_bucket();
  void near_push(const Event& event);
  void near_pop_root();
  void near_sift_down(std::size_t i);
  void near_rebuild();

  /// Dispatch one live event to its handler.
  void dispatch_event(const Event& event);
  void handle_traffic_arrival(const Event& event);
  void handle_flow_arrival(const Event& event);
  void handle_processing_done(const Event& event);
  void handle_instance_idle(const Event& event);
  void handle_failure_start(const Event& event);
  void handle_failure_end(const Event& event);

  void apply_action(Flow& flow, net::NodeId node, int action);
  void process_locally(Flow& flow, net::NodeId node);
  void forward(Flow& flow, net::NodeId node, const net::Neighbor& neighbor);
  void park(Flow& flow, net::NodeId node);
  void drop(Flow& flow, DropReason reason);
  void complete(Flow& flow);

  void acquire(bool is_node, std::uint32_t target, double amount, double release_time,
               Flow& flow);
  /// Release by handle; false if the hold was already released (stale).
  bool release_hold(std::uint64_t handle);

  bool hold_is_live(std::uint64_t handle) const {
    const Hold& hold = holds_[handle_slot(handle)];
    return hold.generation == handle_generation(handle) && hold.active;
  }
  void on_instance_maybe_idle(std::uint32_t instance_index_value);

  const Scenario& scenario_;
  net::Network network_;  ///< private copy carrying this episode's capacities
  util::Rng rng_;
  std::vector<util::Rng> ingress_rngs_;
  std::vector<std::unique_ptr<traffic::ArrivalProcess>> arrivals_;
  /// Cumulative template weights, precomputed at construction (empty when a
  /// single template makes sampling trivial). One uniform draw per arrival —
  /// the same engine consumption as Rng::categorical on the weight vector
  /// the seed engine rebuilt per arrival, so traffic streams are unchanged.
  std::vector<double> template_cumulative_;

  /// Dispatch the coordinator decision for a flow arrival, timed when
  /// enable_decision_timing is on.
  int timed_decide(Flow& flow, net::NodeId node);
  /// Flush per-episode counters/histograms into the global telemetry
  /// registry (no-op unless telemetry::enabled()).
  void flush_telemetry() const;

  // Event queue (see the calendar-queue comment above): compact nodes
  // ordered by (time, seq); full SimEvent payloads live in a recycled slot
  // pool alongside.
  std::vector<Event> near_;                     ///< current bucket, 4-ary heap
  std::vector<std::vector<HeapNode>> buckets_;  ///< ring, unsorted
  std::size_t ring_count_ = 0;   ///< events in buckets_ (excludes near_)
  std::size_t queued_ = 0;       ///< total queued events (near_ + ring)
  std::uint64_t cur_bucket_ = 0; ///< absolute index of the bucket being drained
  std::vector<Event> event_pool_;
  std::vector<std::uint32_t> event_free_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t instance_id_ = 0;
  double time_ = 0.0;
  bool ran_ = false;
  bool time_decisions_ = false;
  /// Decision-yield mode (advance_to_decision): the flow-arrival handler
  /// records the pending (flow, node) instead of calling decide, and the
  /// event loop pauses after that event.
  bool yield_decisions_ = false;
  bool decision_pending_ = false;
  std::uint64_t pending_handle_ = 0;
  net::NodeId pending_node_ = 0;
  std::array<std::uint64_t, kNumEventKinds> events_by_kind_{};

  // Flow pool (slot map + free list).
  std::vector<FlowSlot> flow_slots_;
  std::vector<std::uint32_t> flow_free_;
  std::size_t live_flows_ = 0;
  FlowId next_flow_id_ = 1;

  std::vector<double> node_used_;
  std::vector<double> link_used_;
  std::vector<char> node_down_;
  std::vector<char> link_down_;

  // Hold pool (slot map + free list).
  std::vector<Hold> holds_;
  std::vector<std::uint32_t> hold_free_;

  std::vector<Instance> instances_;
  /// Scratch for failure-casualty collection, sorted by FlowId so drop
  /// order is deterministic (arrival order), not storage order.
  std::vector<std::pair<FlowId, std::uint64_t>> casualties_;

  // Engine statistics (see EngineStats).
  std::size_t peak_event_heap_ = 0;
  std::size_t peak_live_flows_ = 0;
  std::uint64_t flows_recycled_ = 0;
  std::uint64_t holds_recycled_ = 0;
  std::uint64_t events_skipped_ = 0;
  std::uint64_t heap_compactions_ = 0;
  /// Estimated stale events still queued; drives heap compaction.
  std::size_t stale_in_heap_ = 0;

  Coordinator* coordinator_ = nullptr;
  FlowObserver* observer_ = nullptr;
  AuditHook* audit_hook_ = nullptr;
  SimMetrics metrics_;

  /// Coordinator periodic interval, hoisted at start() (0 = none).
  double periodic_ = 0.0;
};

}  // namespace dosc::sim
