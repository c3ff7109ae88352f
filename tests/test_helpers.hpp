// Shared fixtures for the dosc test suite: tiny deterministic networks,
// scripted coordinators, and scenario builders small enough to reason about
// by hand.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string_view>

#include "net/network.hpp"
#include "sim/coordinator.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace dosc::test {

/// A -- B -- C line. Link delays 2 ms, capacities as given.
inline net::Network line3(double link_capacity = 10.0, double link_delay = 2.0) {
  net::NetworkBuilder b("line3");
  const auto a = b.add_node("A");
  const auto m = b.add_node("B");
  const auto c = b.add_node("C");
  b.add_link(a, m, link_delay, link_capacity);
  b.add_link(m, c, link_delay, link_capacity);
  return std::move(b).build();
}

/// Diamond: A connects to B and C, both connect to D. Distinct delays so
/// shortest paths are unambiguous: A-B-D costs 2+2, A-C-D costs 3+3.
inline net::Network diamond(double cap_fast = 10.0, double cap_slow = 10.0) {
  net::NetworkBuilder b("diamond");
  const auto a = b.add_node("A");
  const auto bb = b.add_node("B");
  const auto c = b.add_node("C");
  const auto d = b.add_node("D");
  b.add_link(a, bb, 2.0, cap_fast);
  b.add_link(bb, d, 2.0, cap_fast);
  b.add_link(a, c, 3.0, cap_slow);
  b.add_link(c, d, 3.0, cap_slow);
  return std::move(b).build();
}

/// Single-service catalog with one component: d_c = 5, r = lambda,
/// configurable startup/idle.
inline sim::ServiceCatalog one_component_catalog(double processing_delay = 5.0,
                                                 double startup_delay = 0.0,
                                                 double idle_timeout = 50.0) {
  sim::ServiceCatalog catalog;
  const auto c = catalog.add_component({.name = "c0",
                                        .processing_delay = processing_delay,
                                        .resource_per_rate = 1.0,
                                        .resource_fixed = 0.0,
                                        .startup_delay = startup_delay,
                                        .idle_timeout = idle_timeout});
  catalog.add_service({"svc", {c}});
  return catalog;
}

/// Replays a fixed action sequence; repeats the last action when exhausted.
class ScriptedCoordinator final : public sim::Coordinator {
 public:
  explicit ScriptedCoordinator(std::deque<int> actions) : actions_(std::move(actions)) {}

  int decide(const sim::Simulator&, const sim::Flow&, net::NodeId) override {
    if (actions_.size() > 1) {
      const int a = actions_.front();
      actions_.pop_front();
      return a;
    }
    return actions_.empty() ? 0 : actions_.front();
  }

 private:
  std::deque<int> actions_;
};

/// Calls a lambda per decision.
class LambdaCoordinator final : public sim::Coordinator {
 public:
  using Fn = std::function<int(const sim::Simulator&, const sim::Flow&, net::NodeId)>;
  explicit LambdaCoordinator(Fn fn) : fn_(std::move(fn)) {}
  int decide(const sim::Simulator& s, const sim::Flow& f, net::NodeId v) override {
    return fn_(s, f, v);
  }

 private:
  Fn fn_;
};

/// Records every flow lifecycle event.
class RecordingObserver final : public sim::FlowObserver {
 public:
  struct Event {
    enum class Kind { kCompleted, kDropped, kProcessed, kForwarded, kParked } kind;
    sim::FlowId flow;
    double time;
    sim::DropReason reason = sim::DropReason::kExpired;
  };

  void on_completed(const sim::Flow& f, double t) override {
    events.push_back({Event::Kind::kCompleted, f.id, t});
  }
  void on_dropped(const sim::Flow& f, sim::DropReason r, double t) override {
    events.push_back({Event::Kind::kDropped, f.id, t, r});
  }
  void on_component_processed(const sim::Flow& f, net::NodeId, double t) override {
    events.push_back({Event::Kind::kProcessed, f.id, t});
  }
  void on_forwarded(const sim::Flow& f, net::NodeId, net::LinkId, double t) override {
    events.push_back({Event::Kind::kForwarded, f.id, t});
  }
  void on_parked(const sim::Flow& f, net::NodeId, double t) override {
    events.push_back({Event::Kind::kParked, f.id, t});
  }

  std::size_t count(Event::Kind kind) const {
    std::size_t n = 0;
    for (const Event& e : events) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

  std::vector<Event> events;
};

/// Scenario on an explicit network with fixed (non-random) capacities:
/// node capacities are set before the Scenario is built, and the capacity
/// draw range is pinned so Simulator's per-seed draw reproduces them.
struct TinyScenarioOptions {
  double node_capacity = 10.0;
  double link_cap_lo = 10.0;
  double link_cap_hi = 10.0;
  std::vector<net::NodeId> ingress{0};
  net::NodeId egress = 0;
  double end_time = 100.0;
  double deadline = 100.0;
  double flow_duration = 1.0;
  double interarrival = 10.0;
};

inline sim::Scenario tiny_scenario(net::Network network, sim::ServiceCatalog catalog,
                                   const TinyScenarioOptions& options) {
  sim::ScenarioConfig config;
  config.name = "tiny";
  // Pin the random capacity draw to a point mass so tests are exact.
  config.node_cap_lo = config.node_cap_hi = options.node_capacity;
  config.link_cap_lo = options.link_cap_lo;
  config.link_cap_hi = options.link_cap_hi;
  config.ingress = options.ingress;
  config.egress = options.egress;
  config.end_time = options.end_time;
  config.traffic = traffic::TrafficSpec::fixed(options.interarrival);
  config.flows = {sim::FlowTemplate{.service = 0,
                                    .rate = 1.0,
                                    .duration = options.flow_duration,
                                    .deadline = options.deadline,
                                    .weight = 1.0}};
  return sim::Scenario(std::move(config), std::move(catalog), std::move(network));
}

/// FNV-1a 64 over raw bytes: the content pin of generated scenarios.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dosc::test
