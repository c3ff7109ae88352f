// Flow-lifecycle semantics of the discrete-event simulator, verified on
// hand-computable scenarios: delays, drops (all four reasons), resource
// holds and early release on expiry, instance startup/idle-timeout,
// parking, determinism, periodic callbacks, and chunked (stepwise) driving.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>

#include "baselines/shortest_path.hpp"
#include "check/digest.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace dosc::sim {
namespace {

using test::LambdaCoordinator;
using test::RecordingObserver;
using test::ScriptedCoordinator;
using test::TinyScenarioOptions;
using test::tiny_scenario;

TEST(Simulator, HappyPathDelaysAddUp) {
  // line3: flow enters at node 0, processes c0 there (5 ms), is forwarded
  // over two 2 ms links to the egress (node 2): e2e = 5 + 2 + 2 = 9 ms.
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;  // exactly one flow (t = 10)
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);

  ScriptedCoordinator coordinator({0, 1, 2});
  RecordingObserver observer;
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator, &observer);

  EXPECT_EQ(metrics.generated, 1u);
  EXPECT_EQ(metrics.succeeded, 1u);
  EXPECT_EQ(metrics.dropped, 0u);
  EXPECT_EQ(metrics.decisions, 3u);
  EXPECT_DOUBLE_EQ(metrics.e2e_delay.mean(), 9.0);
  EXPECT_DOUBLE_EQ(metrics.success_ratio(), 1.0);
  ASSERT_EQ(observer.count(RecordingObserver::Event::Kind::kCompleted), 1u);
  // Completion fires at arrival (10) + 9.
  for (const auto& e : observer.events) {
    if (e.kind == RecordingObserver::Event::Kind::kCompleted) {
      EXPECT_DOUBLE_EQ(e.time, 19.0);
    }
  }
  EXPECT_EQ(observer.count(RecordingObserver::Event::Kind::kProcessed), 1u);
  EXPECT_EQ(observer.count(RecordingObserver::Event::Kind::kForwarded), 2u);
}

TEST(Simulator, IngressEqualsEgressCompletesAfterProcessing) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 0;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({0});
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.succeeded, 1u);
  EXPECT_EQ(metrics.decisions, 1u);  // only the processing decision
  EXPECT_DOUBLE_EQ(metrics.e2e_delay.mean(), 5.0);
}

TEST(Simulator, NodeOverloadDrops) {
  TinyScenarioOptions options;
  options.node_capacity = 0.5;  // demand is 1.0
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({0});
  RecordingObserver observer;
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator, &observer);
  EXPECT_EQ(metrics.dropped, 1u);
  EXPECT_EQ(metrics.drops_by_reason[static_cast<std::size_t>(DropReason::kNodeOverload)], 1u);
  EXPECT_DOUBLE_EQ(metrics.success_ratio(), 0.0);
}

TEST(Simulator, LinkOverloadDrops) {
  TinyScenarioOptions options;
  options.link_cap_lo = options.link_cap_hi = 0.5;  // rate is 1.0
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({1});  // forward immediately
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.drops_by_reason[static_cast<std::size_t>(DropReason::kLinkOverload)], 1u);
}

TEST(Simulator, InvalidActionDrops) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  // Node 0 has one neighbour; max_degree is 2 (node 1). Action 2 points at
  // a padded dummy neighbour of node 0 -> invalid.
  ScriptedCoordinator coordinator({2});
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.drops_by_reason[static_cast<std::size_t>(DropReason::kInvalidAction)], 1u);
}

TEST(Simulator, ActionBeyondDegreeDrops) {
  TinyScenarioOptions options;
  options.ingress = {1};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({7});  // > Delta_G
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.drops_by_reason[static_cast<std::size_t>(DropReason::kInvalidAction)], 1u);
}

TEST(Simulator, DeadlineExpiryDropsAndReleasesResources) {
  // deadline 3 < processing delay 5: the flow expires mid-processing at
  // t_arrival + 3 and must release its node hold immediately — the next
  // flow (4 ms later) must observe a fully free node.
  TinyScenarioOptions options;
  options.node_capacity = 1.0;
  options.ingress = {0};
  options.egress = 2;
  options.deadline = 3.0;
  options.interarrival = 4.0;
  options.end_time = 8.0;  // flows at t = 4 and t = 8
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);

  std::vector<double> used_at_decision;
  LambdaCoordinator coordinator([&](const Simulator& sim, const Flow&, net::NodeId node) {
    used_at_decision.push_back(sim.node_used(node));
    return 0;
  });
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.generated, 2u);
  EXPECT_EQ(metrics.drops_by_reason[static_cast<std::size_t>(DropReason::kExpired)], 2u);
  ASSERT_EQ(used_at_decision.size(), 2u);
  // Flow 1 expired at t=7 and released its hold (scheduled release was t=9),
  // so flow 2's decision at t=8 sees an idle node.
  EXPECT_DOUBLE_EQ(used_at_decision[0], 0.0);
  EXPECT_DOUBLE_EQ(used_at_decision[1], 0.0);
}

TEST(Simulator, ParkingDelaysAndPenalizes) {
  // The flow is processed at the ingress, then parked twice (action 0 on a
  // fully processed flow) before being forwarded: adds 2 * park_step.
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({0, 0, 0, 1, 2});
  RecordingObserver observer;
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator, &observer);
  EXPECT_EQ(metrics.succeeded, 1u);
  EXPECT_EQ(observer.count(RecordingObserver::Event::Kind::kParked), 2u);
  EXPECT_DOUBLE_EQ(metrics.e2e_delay.mean(), 9.0 + 2.0);
  EXPECT_EQ(metrics.decisions, 5u);
}

TEST(Simulator, StartupDelayAppliesOnlyToColdInstances) {
  // startup 3 ms: first flow waits for it; a second flow 10 ms later hits
  // the warm instance. idle_timeout is large enough to keep it alive.
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 25.0;  // flows at t = 10 and t = 20
  const Scenario scenario = tiny_scenario(
      test::line3(), test::one_component_catalog(5.0, /*startup=*/3.0, /*idle=*/100.0),
      options);
  ScriptedCoordinator coordinator({0, 1, 2, 0, 1, 2});
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.succeeded, 2u);
  // First: 3 + 5 + 4 = 12; second: 5 + 4 = 9.
  EXPECT_DOUBLE_EQ(metrics.e2e_delay.min(), 9.0);
  EXPECT_DOUBLE_EQ(metrics.e2e_delay.max(), 12.0);
}

TEST(Simulator, IdleInstancesAreRemovedAfterTimeout) {
  // idle_timeout 5: the instance placed for flow 1 (t=10, done t=15) must
  // be gone when flow 2 decides at t=30, but a flow arriving within the
  // timeout window (t=18 with interarrival 8... use 20) sees it.
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.interarrival = 20.0;
  options.end_time = 45.0;  // flows at t = 20 and t = 40
  const Scenario scenario = tiny_scenario(
      test::line3(), test::one_component_catalog(5.0, 0.0, /*idle=*/5.0), options);

  std::vector<bool> instance_seen;
  LambdaCoordinator coordinator(
      [&](const Simulator& sim, const Flow& flow, net::NodeId node) -> int {
        if (!sim.fully_processed(flow)) {
          instance_seen.push_back(sim.instance_available(node, 0));
          return 0;
        }
        return node == 0 ? 1 : 2;
      });
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.succeeded, 2u);
  ASSERT_EQ(instance_seen.size(), 2u);
  EXPECT_FALSE(instance_seen[0]);  // cold start for flow 1
  EXPECT_FALSE(instance_seen[1]);  // removed at t=25+5=30 < 40... removed by timeout
}

TEST(Simulator, WarmInstanceVisibleWithinTimeout) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.interarrival = 7.0;
  options.end_time = 15.0;  // flows at t = 7 and t = 14
  const Scenario scenario = tiny_scenario(
      test::line3(), test::one_component_catalog(5.0, 0.0, /*idle=*/50.0), options);
  std::vector<bool> instance_seen;
  LambdaCoordinator coordinator(
      [&](const Simulator& sim, const Flow& flow, net::NodeId node) -> int {
        if (!sim.fully_processed(flow)) {
          instance_seen.push_back(sim.instance_available(node, 0));
          return 0;
        }
        return node == 0 ? 1 : 2;
      });
  Simulator sim(scenario, 1);
  sim.run(coordinator);
  ASSERT_EQ(instance_seen.size(), 2u);
  EXPECT_FALSE(instance_seen[0]);
  EXPECT_TRUE(instance_seen[1]);  // placed at t=7, still warm at t=14
}

TEST(Simulator, ConcurrentFlowsShareLinkCapacity) {
  // Link capacity 1.5, flow rate 1: a flow occupies the link for
  // d_l + duration = 3 ms, so two forwards 1 ms apart collide.
  TinyScenarioOptions options;
  options.link_cap_lo = options.link_cap_hi = 1.5;
  options.ingress = {0, 0};  // two streams at the same ingress
  options.egress = 2;
  options.interarrival = 10.0;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  // Both flows arrive at t=10 and are forwarded immediately back-to-back:
  // the second exceeds the shared capacity and drops. The first flow is
  // then sent BACK over the same link (action 1 at node 1) while its own
  // forward hold is still active — the reverse direction shares the same
  // capacity, so it drops too.
  ScriptedCoordinator coordinator({1});
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.generated, 2u);
  EXPECT_EQ(metrics.succeeded, 0u);
  EXPECT_EQ(metrics.drops_by_reason[static_cast<std::size_t>(DropReason::kLinkOverload)], 2u);
}

TEST(Simulator, GeneratedFlowCountMatchesFixedArrivals) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.interarrival = 10.0;
  options.end_time = 100.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({0, 1, 2, 0, 1, 2, 0, 1, 2});
  Simulator sim(scenario, 1);
  const SimMetrics metrics = sim.run(coordinator);
  EXPECT_EQ(metrics.generated, 10u);  // t = 10, 20, ..., 100
}

TEST(Simulator, DeterministicAcrossRuns) {
  const Scenario scenario = sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0),
                                                    100.0, "abilene", 1000.0);
  auto run_once = [&](std::uint64_t seed) {
    Simulator sim(scenario, seed);
    ScriptedCoordinator coordinator({0, 1, 2});
    return sim.run(coordinator);
  };
  const SimMetrics a = run_once(7);
  const SimMetrics b = run_once(7);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_DOUBLE_EQ(a.e2e_delay.mean(), b.e2e_delay.mean());
  // Different seed -> different traffic (with overwhelming probability).
  const SimMetrics c = run_once(8);
  EXPECT_NE(a.generated, c.generated);
}

TEST(Simulator, RunTwiceThrows) {
  TinyScenarioOptions options;
  options.end_time = 15.0;
  options.egress = 2;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  ScriptedCoordinator coordinator({0});
  Simulator sim(scenario, 1);
  sim.run(coordinator);
  EXPECT_THROW(sim.run(coordinator), std::logic_error);
}

TEST(Simulator, PeriodicCallbacksFireAtInterval) {
  class PeriodicCoordinator final : public Coordinator {
   public:
    int decide(const Simulator&, const Flow&, net::NodeId) override { return 0; }
    double periodic_interval() const override { return 10.0; }
    void on_periodic(const Simulator&, double time) override { times.push_back(time); }
    std::vector<double> times;
  };
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 0;
  options.end_time = 50.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  PeriodicCoordinator coordinator;
  Simulator sim(scenario, 1);
  sim.run(coordinator);
  ASSERT_EQ(coordinator.times.size(), 5u);
  for (std::size_t i = 0; i < coordinator.times.size(); ++i) {
    EXPECT_DOUBLE_EQ(coordinator.times[i], 10.0 * static_cast<double>(i + 1));
  }
}

TEST(Simulator, PeriodicBeyondHorizonNeverFires) {
  // An interval longer than the episode horizon can never fire, so the
  // first kPeriodic event must not even be seeded (the old engine queued it
  // unconditionally and relied on an in-handler guard).
  class PeriodicCoordinator final : public Coordinator {
   public:
    int decide(const Simulator&, const Flow&, net::NodeId) override { return 0; }
    double periodic_interval() const override { return 1000.0; }
    void on_periodic(const Simulator&, double) override { ++calls; }
    std::size_t calls = 0;
  };
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 0;
  options.end_time = 50.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  PeriodicCoordinator coordinator;
  Simulator sim(scenario, 1);
  sim.run(coordinator);
  EXPECT_EQ(coordinator.calls, 0u);
  EXPECT_EQ(sim.events_by_kind()[static_cast<std::size_t>(EventKind::kPeriodic)], 0u);
}

TEST(Simulator, ChunkedAdvanceMatchesRun) {
  // start + advance_until(limit)... + finish must dispatch exactly run()'s
  // event stream. Pass 1 drives 10 ms chunks. Pass 2 puts every limit on a
  // failure start/end or periodic-callback time, where `next event time >=
  // limit` decides which chunk dispatches the event: it must wait for the
  // next chunk, so time() stays strictly below each limit.
  class PeriodicCoordinator final : public Coordinator {
   public:
    int decide(const Simulator&, const Flow&, net::NodeId) override { return 0; }
    double periodic_interval() const override { return 12.5; }
    void on_periodic(const Simulator&, double time) override { times.push_back(time); }
    std::vector<double> times;
  };
  const Scenario base = make_base_scenario(3);
  ScenarioConfig config = base.config();
  config.end_time = 1000.0;
  config.failures = {{FailureEvent::Kind::kNode, 8, 303.5, 151.25},  // Indianapolis
                     {FailureEvent::Kind::kLink, 8, 612.25, 0.0}};    // KansasCity-Indianapolis
  const Scenario scenario(config, base.catalog(), base.network());
  constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::array<std::uint64_t, kNumEventKinds> by_kind{};
    SimMetrics metrics;
    std::vector<double> periodic_times;
  };
  // An empty `limits` runs the episode with run().
  const auto drive = [&](bool periodic, const std::vector<double>& limits) {
    Simulator sim(scenario, 11);
    check::EventDigest digest;
    sim.set_audit_hook(&digest);
    baselines::ShortestPathCoordinator sp;
    PeriodicCoordinator ticker;
    Coordinator& coordinator = periodic ? static_cast<Coordinator&>(ticker) : sp;
    Outcome out;
    if (limits.empty()) {
      out.metrics = sim.run(coordinator);
    } else {
      sim.start(coordinator);
      for (const double limit : limits) {
        sim.advance_until(limit);
        EXPECT_LT(sim.time(), limit) << "an event at or after " << limit << " was dispatched";
      }
      sim.advance_until(kInf);
      out.metrics = sim.finish();
    }
    out.digest = digest.digest();
    out.events = digest.events();
    out.by_kind = sim.events_by_kind();
    out.periodic_times = ticker.times;
    return out;
  };

  std::vector<double> grid;
  for (double t = 10.0; t <= config.end_time + 200.0; t += 10.0) grid.push_back(t);
  std::vector<double> on_events{303.5, 303.5 + 151.25, 612.25};
  std::vector<double> with_ticks = on_events;
  for (double t = 12.5; t <= config.end_time; t += 12.5) with_ticks.push_back(t);
  std::sort(with_ticks.begin(), with_ticks.end());

  for (const bool periodic : {false, true}) {
    SCOPED_TRACE(periodic ? "periodic coordinator" : "sp");
    const Outcome whole = drive(periodic, {});
    const auto& failed = whole.metrics.drops_by_reason;
    ASSERT_EQ(whole.by_kind[static_cast<std::size_t>(EventKind::kFailureStart)], 2u);
    ASSERT_EQ(whole.by_kind[static_cast<std::size_t>(EventKind::kFailureEnd)], 1u);
    if (periodic) {
      ASSERT_EQ(whole.periodic_times.size(), 80u);
    } else {
      // The failures sit on sp's paths, so they drop traffic.
      EXPECT_GT(failed[static_cast<std::size_t>(DropReason::kNodeFailed)], 0u);
      EXPECT_GT(failed[static_cast<std::size_t>(DropReason::kLinkFailed)], 0u);
    }
    for (const std::vector<double>* limits : {&grid, periodic ? &with_ticks : &on_events}) {
      const Outcome chunked = drive(periodic, *limits);
      EXPECT_EQ(chunked.digest, whole.digest);
      EXPECT_EQ(chunked.events, whole.events);
      EXPECT_EQ(chunked.by_kind, whole.by_kind);
      EXPECT_EQ(chunked.periodic_times, whole.periodic_times);
      EXPECT_EQ(chunked.metrics.generated, whole.metrics.generated);
      EXPECT_EQ(chunked.metrics.succeeded, whole.metrics.succeeded);
      EXPECT_EQ(chunked.metrics.dropped, whole.metrics.dropped);
      EXPECT_EQ(chunked.metrics.decisions, whole.metrics.decisions);
      EXPECT_EQ(chunked.metrics.drops_by_reason, whole.metrics.drops_by_reason);
      EXPECT_EQ(chunked.metrics.e2e_delay.count(), whole.metrics.e2e_delay.count());
      EXPECT_EQ(chunked.metrics.e2e_delay.mean(), whole.metrics.e2e_delay.mean());
    }
  }
}

TEST(Simulator, ComponentDemandAndProgress) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  std::vector<double> demands;
  std::vector<bool> processed_state;
  LambdaCoordinator coordinator(
      [&](const Simulator& sim, const Flow& flow, net::NodeId node) -> int {
        demands.push_back(sim.component_demand(flow));
        processed_state.push_back(sim.fully_processed(flow));
        if (!sim.fully_processed(flow)) return 0;
        return node == 0 ? 1 : 2;
      });
  Simulator sim(scenario, 1);
  sim.run(coordinator);
  ASSERT_EQ(demands.size(), 3u);
  EXPECT_DOUBLE_EQ(demands[0], 1.0);  // requesting c0, rate 1
  EXPECT_DOUBLE_EQ(demands[1], 0.0);  // fully processed
  EXPECT_FALSE(processed_state[0]);
  EXPECT_TRUE(processed_state[1]);
}

TEST(Simulator, DropReasonNames) {
  EXPECT_STREQ(drop_reason_name(DropReason::kNodeOverload), "node_overload");
  EXPECT_STREQ(drop_reason_name(DropReason::kLinkOverload), "link_overload");
  EXPECT_STREQ(drop_reason_name(DropReason::kInvalidAction), "invalid_action");
  EXPECT_STREQ(drop_reason_name(DropReason::kExpired), "expired");
}

TEST(Simulator, RequestedComponentThrowsWhenDone) {
  TinyScenarioOptions options;
  options.ingress = {0};
  options.egress = 2;
  options.end_time = 15.0;
  const Scenario scenario =
      tiny_scenario(test::line3(), test::one_component_catalog(), options);
  bool checked = false;
  LambdaCoordinator coordinator(
      [&](const Simulator& sim, const Flow& flow, net::NodeId node) -> int {
        if (sim.fully_processed(flow)) {
          EXPECT_THROW(sim.requested_component(flow), std::logic_error);
          checked = true;
          return node == 0 ? 1 : 2;
        }
        return 0;
      });
  Simulator sim(scenario, 1);
  sim.run(coordinator);
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace dosc::sim
