#include "check/auditor.hpp"

#include <cmath>
#include <sstream>

namespace dosc::check {

namespace {

std::size_t instance_slot(net::NodeId v, sim::ComponentId c, std::size_t num_components) {
  return static_cast<std::size_t>(v) * num_components + c;
}

}  // namespace

void InvariantAuditor::fail(double time, const std::string& message) {
  ++total_violations_;
  if (violations_.size() < options_.max_recorded) {
    std::ostringstream out;
    out << "t=" << time << ": " << message;
    violations_.push_back(out.str());
  }
}

void InvariantAuditor::on_episode_start(const sim::Simulator& sim) {
  sim_ = &sim;
  num_components_ = sim.catalog().num_components();
  instances_.assign(sim.network().num_nodes() * num_components_, InstanceSnap{});
  tracks_.clear();
  last_arrival_.clear();
  last_time_ = 0.0;
  last_seq_ = 0;
  saw_event_ = false;
  const std::size_t state_cells = sim.network().num_nodes() + sim.network().num_links();
  sampled_ = state_cells > options_.full_sweep_cells ||
             instances_.size() > options_.full_sweep_cells;
}

void InvariantAuditor::check_capacities(const sim::Simulator& sim, double time) {
  const net::Network& network = sim.network();
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    const double used = sim.node_used(v);
    if (used < -options_.eps) {
      fail(time, "node " + std::to_string(v) + " usage negative: " + std::to_string(used));
    }
    if (used > network.node(v).capacity + options_.eps) {
      fail(time, "node " + std::to_string(v) + " capacity exceeded: used " +
                     std::to_string(used) + " > cap " +
                     std::to_string(network.node(v).capacity));
    }
  }
  for (net::LinkId l = 0; l < network.num_links(); ++l) {
    const double used = sim.link_used(l);
    if (used < -options_.eps) {
      fail(time, "link " + std::to_string(l) + " usage negative: " + std::to_string(used));
    }
    if (used > network.link(l).capacity + options_.eps) {
      fail(time, "link " + std::to_string(l) + " capacity exceeded: used " +
                     std::to_string(used) + " > cap " +
                     std::to_string(network.link(l).capacity));
    }
  }
}

void InvariantAuditor::check_conservation(const sim::Simulator& sim, double time) {
  const sim::SimMetrics& m = sim.metrics();
  const std::uint64_t accounted = m.succeeded + m.dropped + sim.num_active_flows();
  if (m.generated != accounted) {
    fail(time, "flow conservation broken: generated " + std::to_string(m.generated) +
                   " != succeeded " + std::to_string(m.succeeded) + " + dropped " +
                   std::to_string(m.dropped) + " + in-flight " +
                   std::to_string(sim.num_active_flows()));
  }
}

void InvariantAuditor::diff_instances(const sim::Simulator& sim, const sim::SimEvent* cause,
                                      double now, bool attribute) {
  const std::size_t num_nodes = sim.network().num_nodes();
  for (net::NodeId v = 0; v < num_nodes; ++v) {
    for (sim::ComponentId c = 0; c < num_components_; ++c) {
      const std::size_t idx = instance_slot(v, c, num_components_);
      const sim::Simulator::InstanceState cur = sim.instance_state(v, c);
      InstanceSnap& prev = instances_[idx];
      // Formatted only for a violation: this loop runs V*C times per event.
      const auto slot = [v, c] {
        return "instance (node " + std::to_string(v) + ", comp " + std::to_string(c) + ")";
      };

      if (!attribute) {
        // Sampled mode: several events fired since the previous snapshot,
        // so changes cannot be pinned on one cause — refresh only.
      } else if (cur.exists && !prev.exists) {
        // Creation: only a flow decision (processing locally) places an
        // instance, paying the startup delay, and immediately pins it.
        if (cause == nullptr) {
          fail(now, slot() + " created before any event");
        } else {
          if (cause->kind != sim::EventKind::kFlowArrival) {
            fail(now, slot() + " created by non-decision event " +
                          sim::event_kind_name(cause->kind));
          }
          const double startup = sim.catalog().component(c).startup_delay;
          if (std::abs(cur.ready_time - (cause->time + startup)) > options_.eps) {
            fail(now, slot() + " ready_time " + std::to_string(cur.ready_time) +
                          " != creation time " + std::to_string(cause->time) +
                          " + startup " + std::to_string(startup));
          }
          if (cur.active == 0) {
            fail(now, slot() + " created without an active flow");
          }
        }
      } else if (!cur.exists && prev.exists) {
        // Removal: only the idle timeout (after genuinely idling that
        // long) or a node failure tears an instance down.
        if (cause == nullptr) {
          fail(now, slot() + " removed before any event");
        } else if (cause->kind == sim::EventKind::kInstanceIdle) {
          if (prev.active != 0) {
            fail(now, slot() + " removed while " + std::to_string(prev.active) +
                          " flows were active");
          }
          const double timeout = sim.catalog().component(c).idle_timeout;
          const double idle_for = cause->time - prev.idle_since;
          if (idle_for < timeout - options_.eps) {
            fail(now, slot() + " removed after only " + std::to_string(idle_for) +
                          " ms idle (timeout " + std::to_string(timeout) + ")");
          }
        } else if (!(cause->kind == sim::EventKind::kFailureStart && cause->a == 0 &&
                     cause->b == v)) {
          fail(now, slot() + " removed by unexpected event " +
                        sim::event_kind_name(cause->kind));
        }
      }

      const double change_time = attribute ? ((cause != nullptr) ? cause->time : 0.0) : now;
      const bool became_idle =
          cur.active == 0 && (prev.active > 0 || (cur.exists && !prev.exists));
      prev.exists = cur.exists;
      prev.ready_time = cur.ready_time;
      prev.active = cur.active;
      if (became_idle) prev.idle_since = change_time;
    }
  }
}

void InvariantAuditor::on_event(const sim::Simulator& sim, const sim::SimEvent& event) {
  ++events_audited_;

  // Event order: time is non-decreasing; ties dispatch in scheduling order.
  if (saw_event_) {
    if (event.time < last_time_) {
      fail(event.time, "event time went backwards (previous " + std::to_string(last_time_) +
                           ", " + sim::event_kind_name(event.kind) + ")");
    } else if (event.time == last_time_ && event.seq <= last_seq_) {
      fail(event.time, "simultaneous events dispatched out of scheduling order (seq " +
                           std::to_string(event.seq) + " after " + std::to_string(last_seq_) +
                           ")");
    }
  }

  // Instance changes made by the previous event, now that its handling is
  // complete; then the global state invariants on the settled state. In
  // sampled mode (large scenarios) the two full-state sweeps run every
  // sample_stride events; conservation is O(1) and always runs.
  if (!sampled_) {
    diff_instances(sim, saw_event_ ? &last_event_ : nullptr, event.time, /*attribute=*/true);
    check_capacities(sim, event.time);
  } else if (events_audited_ % options_.sample_stride == 0) {
    diff_instances(sim, nullptr, event.time, /*attribute=*/false);
    check_capacities(sim, event.time);
  }
  check_conservation(sim, event.time);

  switch (event.kind) {
    case sim::EventKind::kFlowArrival: {
      if (const sim::Flow* flow = sim.find_flow(event.flow)) {
        last_arrival_[event.flow] = event.time;
        if (event.time > flow->expiry_time() + options_.eps) {
          fail(event.time, "flow " + std::to_string(event.flow) +
                               " sees an arrival after its deadline (expiry " +
                               std::to_string(flow->expiry_time()) + ")");
        }
      }
      break;
    }
    case sim::EventKind::kProcessingDone: {
      if (const sim::Flow* flow = sim.find_flow(event.flow)) {
        const sim::Service& service = sim.service_of(*flow);
        if (flow->chain_pos >= service.length()) {
          fail(event.time, "flow " + std::to_string(event.flow) +
                               " finished processing past its chain end");
          break;
        }
        const sim::ComponentId comp = service.chain[flow->chain_pos];
        const sim::Component& component = sim.catalog().component(comp);
        const sim::Simulator::InstanceState inst =
            sim.instance_state(static_cast<net::NodeId>(event.a), comp);
        if (!inst.exists || inst.active == 0) {
          fail(event.time, "flow " + std::to_string(event.flow) +
                               " finished at node " + std::to_string(event.a) +
                               " without a live pinned instance of comp " +
                               std::to_string(comp));
        } else if (inst.ready_time > event.time - component.processing_delay + options_.eps) {
          fail(event.time, "flow " + std::to_string(event.flow) +
                               " processed before instance startup completed (ready " +
                               std::to_string(inst.ready_time) + ")");
        }
        const auto it = last_arrival_.find(event.flow);
        if (it == last_arrival_.end()) {
          fail(event.time,
               "flow " + std::to_string(event.flow) + " processed without a prior arrival");
        } else if (event.time - it->second < component.processing_delay - options_.eps) {
          fail(event.time, "flow " + std::to_string(event.flow) + " processed in " +
                               std::to_string(event.time - it->second) + " ms < d_c " +
                               std::to_string(component.processing_delay));
        }
      }
      break;
    }
    case sim::EventKind::kFlowExpiry: {
      if (const sim::Flow* flow = sim.find_flow(event.flow)) {
        if (std::abs(event.time - flow->expiry_time()) > options_.eps) {
          fail(event.time, "flow " + std::to_string(event.flow) + " expires at " +
                               std::to_string(event.time) + " != t_in + tau " +
                               std::to_string(flow->expiry_time()));
        }
      }
      break;
    }
    default:
      break;
  }

  last_time_ = event.time;
  last_seq_ = event.seq;
  last_event_ = event;
  saw_event_ = true;
}

void InvariantAuditor::on_episode_end(const sim::Simulator& sim) {
  const double now = last_time_;
  diff_instances(sim, saw_event_ ? &last_event_ : nullptr, now, /*attribute=*/!sampled_);

  // The queue drained, so every hold was released and every flow settled.
  check_conservation(sim, now);
  if (sim.num_active_flows() != 0) {
    fail(now, std::to_string(sim.num_active_flows()) + " flows still in flight at episode end");
  }
  const net::Network& network = sim.network();
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    if (std::abs(sim.node_used(v)) > options_.eps) {
      fail(now, "node " + std::to_string(v) + " still holds " +
                    std::to_string(sim.node_used(v)) + " at episode end");
    }
  }
  for (net::LinkId l = 0; l < network.num_links(); ++l) {
    if (std::abs(sim.link_used(l)) > options_.eps) {
      fail(now, "link " + std::to_string(l) + " still holds " +
                    std::to_string(sim.link_used(l)) + " at episode end");
    }
  }
  for (net::NodeId v = 0; v < network.num_nodes(); ++v) {
    for (sim::ComponentId c = 0; c < num_components_; ++c) {
      if (sim.instance_state(v, c).exists) {
        fail(now, "instance (node " + std::to_string(v) + ", comp " + std::to_string(c) +
                      ") still exists at episode end");
      }
    }
  }

  // Observer totals reconcile with the simulator's own accounting. (Catches
  // a lost/double lifecycle callback — requires the auditor to have been
  // run()'s FlowObserver, which attach()'s contract demands.)
  const sim::SimMetrics& m = sim.metrics();
  if (completions_seen_ != m.succeeded) {
    fail(now, "observer saw " + std::to_string(completions_seen_) +
                  " completions, SimMetrics counted " + std::to_string(m.succeeded));
  }
  if (drops_seen_ != m.dropped) {
    fail(now, "observer saw " + std::to_string(drops_seen_) +
                  " drops, SimMetrics counted " + std::to_string(m.dropped));
  }
}

void InvariantAuditor::on_completed(const sim::Flow& flow, double time) {
  ++completions_seen_;
  if (sim_ == nullptr) return;
  const double e2e = time - flow.arrival_time;
  if (e2e > flow.deadline + options_.eps) {
    fail(time, "flow " + std::to_string(flow.id) + " completed after its deadline (e2e " +
                   std::to_string(e2e) + " > tau " + std::to_string(flow.deadline) + ")");
  }
  // Delay decomposition: e2e == processing + link + parking + startup wait,
  // with the startup wait in [0, sum of traversed startup delays].
  const FlowTrack& track = tracks_[flow.id];
  const double waiting = e2e - track.proc_sum - track.link_sum - track.park_sum;
  if (waiting < -options_.eps) {
    fail(time, "flow " + std::to_string(flow.id) + " e2e " + std::to_string(e2e) +
                   " smaller than its processing+link+park components " +
                   std::to_string(track.proc_sum + track.link_sum + track.park_sum));
  }
  if (waiting > track.startup_cap + options_.eps) {
    fail(time, "flow " + std::to_string(flow.id) + " has " + std::to_string(waiting) +
                   " ms unaccounted waiting (> startup bound " +
                   std::to_string(track.startup_cap) + ")");
  }
  tracks_.erase(flow.id);
  last_arrival_.erase(flow.id);
}

void InvariantAuditor::on_dropped(const sim::Flow& flow, sim::DropReason reason, double time) {
  ++drops_seen_;
  if (sim_ == nullptr) return;
  if (reason == sim::DropReason::kExpired &&
      std::abs(time - flow.expiry_time()) > options_.eps) {
    fail(time, "flow " + std::to_string(flow.id) + " dropped as expired at " +
                   std::to_string(time) + " != t_in + tau " +
                   std::to_string(flow.expiry_time()));
  }
  tracks_.erase(flow.id);
  last_arrival_.erase(flow.id);
}

void InvariantAuditor::on_component_processed(const sim::Flow& flow, net::NodeId /*node*/,
                                              double time) {
  if (sim_ == nullptr) return;
  const sim::Service& service = sim_->service_of(flow);
  // chain_pos was already advanced past the component that just finished.
  if (flow.chain_pos == 0 || flow.chain_pos > service.length()) {
    fail(time, "flow " + std::to_string(flow.id) + " reports an impossible chain position " +
                   std::to_string(flow.chain_pos));
    return;
  }
  const sim::Component& component = sim_->catalog().component(service.chain[flow.chain_pos - 1]);
  FlowTrack& track = tracks_[flow.id];
  track.proc_sum += component.processing_delay;
  track.startup_cap += component.startup_delay;
}

void InvariantAuditor::on_forwarded(const sim::Flow& flow, net::NodeId /*from*/,
                                    net::LinkId link, double /*time*/) {
  if (sim_ == nullptr) return;
  tracks_[flow.id].link_sum += sim_->network().link(link).delay;
}

void InvariantAuditor::on_parked(const sim::Flow& flow, net::NodeId /*node*/, double /*time*/) {
  if (sim_ == nullptr) return;
  tracks_[flow.id].park_sum += sim_->scenario().config().park_step;
}

std::string InvariantAuditor::report() const {
  std::ostringstream out;
  if (ok()) {
    out << "audit ok: " << events_audited_ << " events, " << completions_seen_
        << " completions, " << drops_seen_ << " drops";
    if (sampled_) out << " (sampled sweeps)";
    return out.str();
  }
  out << total_violations_ << " invariant violation(s) over " << events_audited_ << " events";
  for (const std::string& v : violations_) out << "\n  " << v;
  if (total_violations_ > violations_.size()) {
    out << "\n  ... " << (total_violations_ - violations_.size()) << " more";
  }
  return out.str();
}

}  // namespace dosc::check
