#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace dosc::sim {

namespace {
// Tolerance on capacity comparisons: flows whose demand exceeds the free
// capacity by less than this still fit (guards against float accumulation).
constexpr double kCapacityEps = 1e-9;
// Compaction threshold: rebuild the heap without stale events once at least
// this many are queued AND they make up half the heap. The second condition
// bounds peak heap depth at ~2x the live-event count; the first keeps tiny
// heaps from compacting on every other event.
constexpr std::size_t kMinStaleForCompaction = 64;
// Calendar-queue geometry: 1024 buckets of 0.03125 ms give a 32 ms window.
// Most scheduled offsets (hop delays, processing, park steps) land inside
// it; longer timers (deadline expiries, idle timeouts) alias around the
// ring and are filtered at drain time by their true bucket index. Narrow
// buckets win here because they keep the near heap tiny (L1-resident) —
// the drain-time aliasing checks are cheap by comparison.
constexpr std::size_t kNumBuckets = 1024;
constexpr double kBucketWidthMs = 0.03125;
}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kTrafficArrival: return "traffic_arrival";
    case EventKind::kFlowArrival: return "flow_arrival";
    case EventKind::kProcessingDone: return "processing_done";
    case EventKind::kHoldRelease: return "hold_release";
    case EventKind::kInstanceIdle: return "instance_idle";
    case EventKind::kFlowExpiry: return "flow_expiry";
    case EventKind::kPeriodic: return "periodic";
    case EventKind::kFailureStart: return "failure_start";
    case EventKind::kFailureEnd: return "failure_end";
  }
  return "?";
}

const char* drop_reason_name(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kNodeOverload: return "node_overload";
    case DropReason::kLinkOverload: return "link_overload";
    case DropReason::kInvalidAction: return "invalid_action";
    case DropReason::kExpired: return "expired";
    case DropReason::kNodeFailed: return "node_failed";
    case DropReason::kLinkFailed: return "link_failed";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> g_next_instance_id{1};
}  // namespace

Simulator::Simulator(const Scenario& scenario, std::uint64_t seed)
    : scenario_(scenario), network_(scenario.network()), rng_(seed) {
  instance_id_ = g_next_instance_id.fetch_add(1, std::memory_order_relaxed);
  // Per-seed capacity draw, as in the paper's 30-seed experiment runs.
  util::Rng cap_rng = rng_.fork(1);
  const ScenarioConfig& config = scenario_.config();
  if (config.randomize_capacities) {
    network_.assign_random_capacities(cap_rng, config.node_cap_lo, config.node_cap_hi,
                                      config.link_cap_lo, config.link_cap_hi);
  }

  node_used_.assign(network_.num_nodes(), 0.0);
  link_used_.assign(network_.num_links(), 0.0);
  node_down_.assign(network_.num_nodes(), 0);
  link_down_.assign(network_.num_links(), 0);
  instances_.assign(network_.num_nodes() * catalog().num_components(), Instance{});

  // Weighted-template sampler: cumulative sums once, not a weights vector
  // per arrival. Sequential summation matches Rng::categorical's total.
  if (config.flows.size() > 1) {
    template_cumulative_.reserve(config.flows.size());
    double total = 0.0;
    for (const FlowTemplate& t : config.flows) {
      total += t.weight;
      template_cumulative_.push_back(total);
    }
  }

  for (std::size_t i = 0; i < config.ingress.size(); ++i) {
    ingress_rngs_.push_back(rng_.fork(100 + i));
    arrivals_.push_back(config.traffic.make_process());
  }

  buckets_.resize(kNumBuckets);
}

double Simulator::component_demand(const Flow& flow) const {
  if (fully_processed(flow)) return 0.0;
  return catalog().component(requested_component(flow)).resource(flow.rate);
}

ComponentId Simulator::requested_component(const Flow& flow) const {
  const Service& service = service_of(flow);
  if (flow.chain_pos >= service.length()) {
    throw std::logic_error("requested_component: flow fully processed");
  }
  return service.chain[flow.chain_pos];
}

std::uint32_t Simulator::acquire_event_slot() {
  std::uint32_t slot;
  if (!event_free_.empty()) {
    slot = event_free_.back();
    event_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(event_pool_.size());
    event_pool_.emplace_back();
    // Same free-list sizing rule as the flow/hold pools: pre-reserve to the
    // pool vector's geometric capacity so releasing every event at episode
    // drain never reallocates.
    if (event_free_.capacity() < event_pool_.size()) {
      event_free_.reserve(event_pool_.capacity());
    }
  }
  return slot;
}

void Simulator::near_push(const Event& event) {
  std::size_t i = near_.size();
  near_.push_back(event);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!event_before(event, near_[parent])) break;
    near_[i] = near_[parent];
    i = parent;
  }
  near_[i] = event;
}

void Simulator::near_sift_down(std::size_t i) {
  const std::size_t n = near_.size();
  const Event event = near_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_before(near_[c], near_[best])) best = c;
    }
    if (!event_before(near_[best], event)) break;
    near_[i] = near_[best];
    i = best;
  }
  near_[i] = event;
}

void Simulator::near_pop_root() {
  near_[0] = near_.back();
  near_.pop_back();
  if (!near_.empty()) near_sift_down(0);
}

void Simulator::near_rebuild() {
  if (near_.size() < 2) return;
  for (std::size_t i = (near_.size() - 2) / 4 + 1; i-- > 0;) {
    near_sift_down(i);
  }
}

std::uint64_t Simulator::bucket_index_of(double time) noexcept {
  // Far-future times (past ~1.4e17 ms) share the last bucket instead of
  // overflowing the cast; the near heap orders them by (time, seq), so
  // dispatch order stays exact. Below 2^62 the signed conversion is exact
  // and one instruction.
  constexpr double kMaxBucket = 4611686018427387904.0;  // 2^62
  const double bucket = time / kBucketWidthMs;
  if (!(bucket < kMaxBucket)) return static_cast<std::uint64_t>(kMaxBucket);
  return bucket <= 0.0 ? 0 : static_cast<std::uint64_t>(static_cast<std::int64_t>(bucket));
}

void Simulator::queue_push(const Event& event) {
  // Events are never scheduled in the past, so the bucket is either the one
  // currently being drained (the near heap) or a future one.
  const std::uint64_t b = bucket_index_of(event.time);
  if (b <= cur_bucket_) {
    near_push(event);
  } else {
    const std::uint32_t slot = acquire_event_slot();
    event_pool_[slot] = event;
    buckets_[b % kNumBuckets].push_back({event.time, event.seq, slot});
    ++ring_count_;
  }
  ++queued_;
  if (queued_ > peak_event_heap_) peak_event_heap_ = queued_;
}

void Simulator::drain_current_bucket() {
  std::vector<HeapNode>& bucket = buckets_[cur_bucket_ % kNumBuckets];
  std::size_t i = 0;
  while (i < bucket.size()) {
    if (bucket_index_of(bucket[i].time) <= cur_bucket_) {
      near_push(event_pool_[bucket[i].payload]);
      event_free_.push_back(bucket[i].payload);
      bucket[i] = bucket.back();
      bucket.pop_back();
      --ring_count_;
    } else {
      ++i;  // aliased: belongs to a later ring wrap
    }
  }
}

void Simulator::queue_advance() {
  std::size_t steps = 0;
  while (near_.empty()) {
    ++cur_bucket_;
    if (++steps > kNumBuckets) {
      // A full sweep found nothing due — every queued event is beyond the
      // window. Jump straight to the earliest bucket (rare: sparse far
      // timers such as scheduled failures in an otherwise idle stretch).
      std::uint64_t min_b = ~std::uint64_t{0};
      for (const std::vector<HeapNode>& bucket : buckets_) {
        for (const HeapNode& node : bucket) {
          min_b = std::min(min_b, bucket_index_of(node.time));
        }
      }
      cur_bucket_ = min_b;
      steps = 0;
    }
    drain_current_bucket();
  }
}

void Simulator::schedule(double time, EventKind kind, FlowId flow, std::uint32_t a,
                         std::uint32_t b, std::uint64_t h) {
  queue_push({time, next_seq_++, kind, flow, a, b, h});
}

void Simulator::schedule_flow_event(double time, EventKind kind, Flow& flow,
                                    std::uint32_t a) {
  ++flow_slots_[handle_slot(flow.pool_handle)].pending_events;
  schedule(time, kind, flow.id, a, 0, flow.pool_handle);
}

Flow& Simulator::emplace_flow() {
  std::uint32_t slot;
  if (!flow_free_.empty()) {
    slot = flow_free_.back();
    flow_free_.pop_back();
    ++flows_recycled_;
  } else {
    slot = static_cast<std::uint32_t>(flow_slots_.size());
    flow_slots_.emplace_back();
    // The free list can hold at most one entry per slot; sizing it to the
    // slot vector's (geometric) capacity now means it never reallocates
    // later — not even when the episode drains and every slot is freed.
    if (flow_free_.capacity() < flow_slots_.size()) {
      flow_free_.reserve(flow_slots_.capacity());
    }
  }
  FlowSlot& s = flow_slots_[slot];
  Flow& flow = s.flow;
  flow.alive = true;
  flow.chain_pos = 0;
  flow.holds.clear();
  flow.processing_instance = Flow::kNoInstance;
  flow.pool_handle = make_handle(slot, s.generation);
  s.pending_events = 0;
  ++live_flows_;
  if (live_flows_ > peak_live_flows_) peak_live_flows_ = live_flows_;
  return flow;
}

void Simulator::erase_flow(Flow& flow) {
  FlowSlot& s = flow_slots_[handle_slot(flow.pool_handle)];
  // Every still-queued event addressed to this flow is now stale.
  stale_in_heap_ += s.pending_events;
  s.pending_events = 0;
  ++s.generation;  // cancels all handles to this incarnation
  flow.alive = false;
  flow_free_.push_back(handle_slot(flow.pool_handle));
  --live_flows_;
}

bool Simulator::event_is_stale(const Event& event) const {
  switch (event.kind) {
    case EventKind::kFlowArrival:
    case EventKind::kProcessingDone:
    case EventKind::kFlowExpiry: {
      const FlowSlot& s = flow_slots_[handle_slot(event.h)];
      return s.generation != handle_generation(event.h) || !s.flow.alive;
    }
    case EventKind::kHoldRelease:
      return !hold_is_live(event.h);
    case EventKind::kInstanceIdle: {
      const Instance& instance = instances_[event.a];
      return !(instance.exists && instance.active == 0 &&
               instance.idle_epoch == event.flow);
    }
    default:
      // kHoldRelease never reaches here: releases live in per-resource
      // pending heaps, not the event queue.
      return false;
  }
}

void Simulator::maybe_compact_heap() {
  if (stale_in_heap_ < kMinStaleForCompaction || stale_in_heap_ * 2 < queued_) {
    return;
  }
  std::size_t w = 0;
  for (std::size_t r = 0; r < near_.size(); ++r) {
    if (!event_is_stale(near_[r])) {
      near_[w++] = near_[r];
    }
  }
  near_.resize(w);
  near_rebuild();
  for (std::vector<HeapNode>& bucket : buckets_) {
    std::size_t i = 0;
    while (i < bucket.size()) {
      if (event_is_stale(event_pool_[bucket[i].payload])) {
        event_free_.push_back(bucket[i].payload);
        bucket[i] = bucket.back();
        bucket.pop_back();
        --ring_count_;
      } else {
        ++i;
      }
    }
  }
  queued_ = near_.size() + ring_count_;
  stale_in_heap_ = 0;
  ++heap_compactions_;
}

SimMetrics Simulator::run(Coordinator& coordinator, FlowObserver* observer) {
  start(coordinator, observer);
  advance_until(std::numeric_limits<double>::infinity());
  return finish();
}

void Simulator::start(Coordinator& coordinator, FlowObserver* observer) {
  if (ran_) throw std::logic_error("Simulator::start may only be called once");
  ran_ = true;
  coordinator_ = &coordinator;
  observer_ = observer;

  const ScenarioConfig& config = scenario_.config();
  coordinator.on_episode_start(*this);
  if (audit_hook_ != nullptr) audit_hook_->on_episode_start(*this);

  // Seed the event queue: first arrival per ingress, plus periodic callbacks
  // for coordinators that use them (the centralized baseline's monitoring).
  for (std::size_t i = 0; i < config.ingress.size(); ++i) {
    const double dt = arrivals_[i]->next_interarrival(0.0, ingress_rngs_[i]);
    schedule(dt, EventKind::kTrafficArrival, 0, static_cast<std::uint32_t>(i));
  }
  // Only seed the periodic callback if it can fire within the horizon; a
  // coordinator whose interval exceeds end_time gets zero on_periodic calls.
  periodic_ = coordinator.periodic_interval();
  if (periodic_ > 0.0 && periodic_ <= config.end_time) {
    schedule(periodic_, EventKind::kPeriodic);
  }
  for (const FailureEvent& failure : config.failures) {
    const std::uint32_t kind = (failure.kind == FailureEvent::Kind::kNode) ? 0 : 1;
    schedule(failure.start, EventKind::kFailureStart, 0, kind, failure.id);
    if (failure.duration > 0.0) {
      schedule(failure.start + failure.duration, EventKind::kFailureEnd, 0, kind, failure.id);
    }
  }
}

void Simulator::advance_until(double limit) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  while (queued_ > 0) {
    if (near_.empty()) queue_advance();
    if (near_[0].time >= limit) break;
    const Event event = near_[0];
    near_pop_root();
    --queued_;

    // Lazy cancellation: events whose target died since scheduling would
    // have dispatched as no-ops; skip them without adopting their time,
    // counting them, or surfacing them to the audit hook.
    if (event_is_stale(event)) {
      ++events_skipped_;
      if (stale_in_heap_ > 0) --stale_in_heap_;
      maybe_compact_heap();
      continue;
    }
    switch (event.kind) {
      case EventKind::kFlowArrival:
      case EventKind::kProcessingDone:
      case EventKind::kFlowExpiry:
        --flow_slots_[handle_slot(event.h)].pending_events;
        break;
      default:
        break;
    }

    time_ = event.time;
    ++events_by_kind_[static_cast<std::size_t>(event.kind)];
    if (audit_hook_ != nullptr) audit_hook_->on_event(*this, event);

    if (tracer.is_enabled()) {
      telemetry::ScopedSpan span(tracer, "sim", event_kind_name(event.kind));
      dispatch_event(event);
    } else {
      dispatch_event(event);
    }
    maybe_compact_heap();
    if (decision_pending_) break;  // decision-yield mode: pause for the caller
  }
}

bool Simulator::advance_to_decision(double limit) {
  if (decision_pending_) {
    throw std::logic_error(
        "Simulator::advance_to_decision: resume_with_action not called");
  }
  yield_decisions_ = true;
  advance_until(limit);
  return decision_pending_;
}

void Simulator::resume_with_action(int action) {
  if (!decision_pending_) {
    throw std::logic_error("Simulator::resume_with_action: no pending decision");
  }
  decision_pending_ = false;
  apply_action(pending_flow(), pending_node_, action);
}

SimMetrics Simulator::finish() {
  if (audit_hook_ != nullptr) audit_hook_->on_episode_end(*this);
  coordinator_ = nullptr;
  observer_ = nullptr;
  if (telemetry::enabled()) flush_telemetry();
  return metrics_;
}

void Simulator::dispatch_event(const Event& event) {
  switch (event.kind) {
    case EventKind::kTrafficArrival: handle_traffic_arrival(event); break;
    case EventKind::kFlowArrival: handle_flow_arrival(event); break;
    case EventKind::kProcessingDone: handle_processing_done(event); break;
    case EventKind::kHoldRelease: release_hold(event.h); break;
    case EventKind::kInstanceIdle: handle_instance_idle(event); break;
    case EventKind::kFlowExpiry: drop(flow_of(event), DropReason::kExpired); break;
    case EventKind::kFailureStart: handle_failure_start(event); break;
    case EventKind::kFailureEnd: handle_failure_end(event); break;
    case EventKind::kPeriodic:
      // Periodic callbacks continue while traffic can still arrive. For
      // the centralized baseline this is the rule refresh — ITS
      // "decision" in Fig. 9b terms — so it is timed like one.
      if (time_decisions_) {
        const util::Timer timer;
        coordinator_->on_periodic(*this, time_);
        metrics_.record_rule_update_time(timer.elapsed_micros());
      } else {
        coordinator_->on_periodic(*this, time_);
      }
      if (time_ + periodic_ <= scenario_.config().end_time) {
        schedule(time_ + periodic_, EventKind::kPeriodic);
      }
      break;
  }
}

void Simulator::handle_traffic_arrival(const Event& event) {
  const ScenarioConfig& config = scenario_.config();
  if (time_ > config.end_time) return;  // generation horizon reached

  const std::uint32_t ingress_index = event.a;
  const net::NodeId ingress = config.ingress[ingress_index];

  // Stamp a flow from a (weighted) template. The cumulative table was built
  // at construction; degenerate all-zero weights fall back to the last
  // template without consuming a draw, exactly like Rng::categorical.
  std::size_t template_index = 0;
  if (!template_cumulative_.empty()) {
    const double total = template_cumulative_.back();
    if (total > 0.0) {
      const double u = rng_.uniform(0.0, total);
      template_index = static_cast<std::size_t>(
          std::lower_bound(template_cumulative_.begin(), template_cumulative_.end(), u) -
          template_cumulative_.begin());
      if (template_index >= template_cumulative_.size()) {
        template_index = template_cumulative_.size() - 1;
      }
    } else {
      template_index = template_cumulative_.size() - 1;
    }
  }
  const FlowTemplate& tmpl = config.flows[template_index];

  Flow& flow = emplace_flow();
  flow.id = next_flow_id_++;
  flow.service = tmpl.service;
  flow.ingress = ingress;
  flow.egress = config.egress;
  flow.rate = tmpl.rate;
  flow.duration = tmpl.duration;
  flow.arrival_time = time_;
  flow.deadline = tmpl.deadline;
  flow.current_node = ingress;
  ++metrics_.generated;

  schedule_flow_event(time_, EventKind::kFlowArrival, flow, ingress);
  schedule_flow_event(time_ + flow.deadline, EventKind::kFlowExpiry, flow);

  // Next arrival at this ingress.
  const double dt = arrivals_[ingress_index]->next_interarrival(time_, ingress_rngs_[ingress_index]);
  schedule(time_ + dt, EventKind::kTrafficArrival, 0, ingress_index);
}

void Simulator::handle_flow_arrival(const Event& event) {
  Flow& flow = flow_of(event);
  const net::NodeId node = event.a;
  flow.current_node = node;

  // A failed node black-holes traffic: anything arriving there is lost.
  if (node_down_[node]) {
    drop(flow, DropReason::kNodeFailed);
    return;
  }
  if (fully_processed(flow) && node == flow.egress) {
    complete(flow);
    return;
  }
  ++metrics_.decisions;
  if (yield_decisions_) {
    // Pause here; the caller observes (flow, node) and resumes with the
    // action. The flow is guaranteed live at resume: the loop stops right
    // after this event, so nothing can drop it in between.
    decision_pending_ = true;
    pending_handle_ = event.h;
    pending_node_ = node;
    return;
  }
  const int action = timed_decide(flow, node);
  apply_action(flow, node, action);
}

int Simulator::timed_decide(Flow& flow, net::NodeId node) {
  if (!time_decisions_) return coordinator_->decide(*this, flow, node);
  const util::Timer timer;
  const int action = coordinator_->decide(*this, flow, node);
  metrics_.record_decision_time(timer.elapsed_micros());
  return action;
}

void Simulator::apply_action(Flow& flow, net::NodeId node, int action) {
  const auto& neighbors = network_.neighbors(node);
  const int max_action = static_cast<int>(network_.max_degree());
  if (action < 0 || action > max_action) {
    drop(flow, DropReason::kInvalidAction);
    return;
  }
  if (action == kActionProcessLocal) {
    if (fully_processed(flow)) {
      park(flow, node);
    } else {
      process_locally(flow, node);
    }
    return;
  }
  // Forward to the a-th neighbour (1-based). Actions beyond the node's real
  // neighbour count point at padded dummy neighbours and drop the flow.
  const std::size_t index = static_cast<std::size_t>(action - 1);
  if (index >= neighbors.size()) {
    drop(flow, DropReason::kInvalidAction);
    return;
  }
  forward(flow, node, neighbors[index]);
}

void Simulator::process_locally(Flow& flow, net::NodeId node) {
  const ComponentId comp = requested_component(flow);
  const Component& component = catalog().component(comp);
  const double demand = component.resource(flow.rate);

  if (node_used_[node] + demand > network_.node(node).capacity + kCapacityEps) {
    drop(flow, DropReason::kNodeOverload);
    return;
  }
  // Scaling + placement derived from the scheduling decision: ensure an
  // instance exists (x_{c,v} := 1), starting one if needed.
  const std::size_t idx = instance_index(node, comp);
  Instance& instance = instances_[idx];
  if (!instance.exists) {
    instance.exists = true;
    instance.ready_time = time_ + component.startup_delay;
    instance.active = 0;
    ++instance.idle_epoch;
  }
  const double start = std::max(time_, instance.ready_time);
  const double done = start + component.processing_delay;

  // Rate-capacity node occupancy: the instance consumes r_c(lambda) for the
  // processing window [now, done] (including any startup wait), matching
  // coord-sim's fluid model. The release is scheduled before the
  // processing-done requery (lower sequence number), so a node with
  // capacity for one flow can chain consecutive components of that flow.
  acquire(/*is_node=*/true, node, demand, done, flow);
  ++instance.active;
  flow.processing_instance = static_cast<std::uint32_t>(idx);
  schedule_flow_event(done, EventKind::kProcessingDone, flow, node);
}

void Simulator::forward(Flow& flow, net::NodeId node, const net::Neighbor& neighbor) {
  const net::Link& link = network_.link(neighbor.link);
  if (link_down_[neighbor.link]) {
    drop(flow, DropReason::kLinkFailed);
    return;
  }
  if (link_used_[neighbor.link] + flow.rate > link.capacity + kCapacityEps) {
    drop(flow, DropReason::kLinkOverload);
    return;
  }
  acquire(/*is_node=*/false, neighbor.link, flow.rate, time_ + link.delay + flow.duration, flow);
  if (observer_ != nullptr) observer_->on_forwarded(flow, node, neighbor.link, time_);
  schedule_flow_event(time_ + link.delay, EventKind::kFlowArrival, flow, neighbor.node);
}

void Simulator::park(Flow& flow, net::NodeId node) {
  if (observer_ != nullptr) observer_->on_parked(flow, node, time_);
  schedule_flow_event(time_ + scenario_.config().park_step, EventKind::kFlowArrival, flow, node);
}

void Simulator::handle_processing_done(const Event& event) {
  Flow& flow = flow_of(event);
  if (flow.processing_instance != Flow::kNoInstance) {
    on_instance_maybe_idle(flow.processing_instance);
    flow.processing_instance = Flow::kNoInstance;
  }
  ++flow.chain_pos;
  if (observer_ != nullptr) observer_->on_component_processed(flow, event.a, time_);
  // The flow now requests the next component (or routing to its egress) at
  // the same node; query the node's agent again.
  schedule_flow_event(time_, EventKind::kFlowArrival, flow, event.a);
}

void Simulator::acquire(bool is_node, std::uint32_t target, double amount,
                        double release_time, Flow& flow) {
  if (is_node) {
    node_used_[target] += amount;
  } else {
    link_used_[target] += amount;
  }
  std::uint32_t slot;
  if (!hold_free_.empty()) {
    slot = hold_free_.back();
    hold_free_.pop_back();
    ++holds_recycled_;
  } else {
    slot = static_cast<std::uint32_t>(holds_.size());
    holds_.emplace_back();
    // As with the flow pool: one free-list entry per slot at most, so the
    // drain phase frees every hold without growing the vector.
    if (hold_free_.capacity() < holds_.size()) {
      hold_free_.reserve(holds_.capacity());
    }
  }
  Hold& hold = holds_[slot];
  hold.is_node = is_node;
  hold.target = target;
  hold.amount = amount;
  hold.active = true;
  const std::uint64_t handle = make_handle(slot, hold.generation);
  // Keep the flow's hold list within its inline buffer by pruning handles
  // of already-released holds before it would spill.
  if (flow.holds.size() >= HoldList::kInline) {
    flow.holds.remove_dead([this](std::uint64_t h) { return hold_is_live(h); });
  }
  flow.holds.push_back(handle);
  schedule(release_time, EventKind::kHoldRelease, 0, slot, 0, handle);
}

bool Simulator::release_hold(std::uint64_t handle) {
  Hold& hold = holds_[handle_slot(handle)];
  if (hold.generation != handle_generation(handle) || !hold.active) return false;
  hold.active = false;
  if (hold.is_node) {
    node_used_[hold.target] = std::max(0.0, node_used_[hold.target] - hold.amount);
  } else {
    link_used_[hold.target] = std::max(0.0, link_used_[hold.target] - hold.amount);
  }
  // Recycle the slot; the generation bump cancels the scheduled release
  // when this one happened early (flow dropped).
  ++hold.generation;
  hold_free_.push_back(handle_slot(handle));
  return true;
}

void Simulator::on_instance_maybe_idle(std::uint32_t instance_index_value) {
  Instance& instance = instances_.at(instance_index_value);
  if (instance.active > 0) --instance.active;
  if (instance.exists && instance.active == 0) {
    ++instance.idle_epoch;
    ComponentId comp = static_cast<ComponentId>(instance_index_value % catalog().num_components());
    const double timeout = catalog().component(comp).idle_timeout;
    schedule(time_ + timeout, EventKind::kInstanceIdle, instance.idle_epoch,
             static_cast<std::uint32_t>(instance_index_value));
  }
}

void Simulator::handle_instance_idle(const Event& event) {
  // Staleness (epoch mismatch / reactivation) was filtered at pop time.
  instances_[event.a].exists = false;  // x_{c,v} := 0, unused instance removed
}

void Simulator::handle_failure_start(const Event& event) {
  if (event.a == 1) {
    // Link failure: nothing new enters the link; bits already in flight
    // are assumed delivered (a conservative cut semantics).
    link_down_[event.b] = 1;
    return;
  }
  const net::NodeId node = event.b;
  node_down_[node] = 1;
  // Flows being processed at the node die with it; their resources free.
  // Collect then sort by FlowId: pool-slot order depends on recycling (as
  // hash order did on the map implementation), but drop order — observer
  // callbacks, audit streams, digests — must be deterministic.
  casualties_.clear();
  for (const FlowSlot& slot : flow_slots_) {
    const Flow& flow = slot.flow;
    if (flow.alive && flow.processing_instance != Flow::kNoInstance &&
        flow.processing_instance / catalog().num_components() == node) {
      casualties_.push_back({flow.id, flow.pool_handle});
    }
  }
  std::sort(casualties_.begin(), casualties_.end());
  for (const auto& [id, handle] : casualties_) {
    FlowSlot& slot = flow_slots_[handle_slot(handle)];
    if (slot.generation == handle_generation(handle) && slot.flow.alive) {
      drop(slot.flow, DropReason::kNodeFailed);
    }
  }
  // Its instances are gone (x_{c,v} := 0); restarts after recovery pay the
  // startup delay again.
  for (ComponentId c = 0; c < catalog().num_components(); ++c) {
    Instance& instance = instances_[instance_index(node, c)];
    instance.exists = false;
    instance.active = 0;
    ++instance.idle_epoch;  // invalidate pending idle-timeout events
  }
}

void Simulator::handle_failure_end(const Event& event) {
  if (event.a == 1) {
    link_down_[event.b] = 0;
  } else {
    node_down_[event.b] = 0;
  }
}

void Simulator::drop(Flow& flow, DropReason reason) {
  metrics_.record_drop(reason);
  if (observer_ != nullptr) observer_->on_dropped(flow, reason, time_);
  // Deadline expiry (and any other drop) frees currently blocked resources
  // and unpins the instance the flow was being processed at. Each early
  // release leaves one dead entry in its resource's pending heap, skipped
  // (and counted) when it drains — never a queue event, so it does not
  // feed stale_in_heap_.
  for (std::size_t i = 0; i < flow.holds.size(); ++i) {
    if (release_hold(flow.holds[i])) ++stale_in_heap_;
  }
  if (flow.processing_instance != Flow::kNoInstance) {
    on_instance_maybe_idle(flow.processing_instance);
  }
  erase_flow(flow);
}

void Simulator::flush_telemetry() const {
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  registry.counter("sim.flows.generated").add(metrics_.generated);
  registry.counter("sim.flows.succeeded").add(metrics_.succeeded);
  registry.counter("sim.flows.dropped").add(metrics_.dropped);
  registry.counter("sim.decisions").add(metrics_.decisions);
  // Every DropReason gets a counter, zero or not, so snapshots always show
  // the full breakdown.
  for (std::size_t r = 0; r < kNumDropReasons; ++r) {
    registry.counter(std::string("sim.drops.") + drop_reason_name(static_cast<DropReason>(r)))
        .add(metrics_.drops_by_reason[r]);
  }
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    registry.counter(std::string("sim.events.") + event_kind_name(static_cast<EventKind>(k)))
        .add(events_by_kind_[k]);
  }
  registry.counter("sim.events.skipped").add(events_skipped_);
  if (metrics_.decision_time.count() > 0) {
    registry.merge_histogram("sim.decision_us", metrics_.decision_time);
  }
  if (metrics_.rule_update_time.count() > 0) {
    registry.merge_histogram("sim.rule_update_us", metrics_.rule_update_time);
  }
  registry.gauge("sim.last_success_ratio").set(metrics_.success_ratio());
  // Engine gauges: peak queue depth, how tightly the flow pool was packed
  // at its peak, and how many hold acquisitions reused recycled slots.
  registry.gauge("sim.event_queue.peak").set(static_cast<double>(peak_event_heap_));
  registry.gauge("sim.flow_pool.occupancy")
      .set(flow_slots_.empty() ? 0.0
                               : static_cast<double>(peak_live_flows_) /
                                     static_cast<double>(flow_slots_.size()));
  registry.gauge("sim.holds.recycled").set(static_cast<double>(holds_recycled_));
}

void Simulator::complete(Flow& flow) {
  const double delay = time_ - flow.arrival_time;
  metrics_.record_success(delay);
  if (observer_ != nullptr) observer_->on_completed(flow, time_);
  // The flow's tail is still draining through held resources; holds outlive
  // the flow record and release on their scheduled timers.
  erase_flow(flow);
}

}  // namespace dosc::sim
