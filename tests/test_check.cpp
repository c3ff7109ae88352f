#include <gtest/gtest.h>

#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "check/auditor.hpp"
#include "check/differential.hpp"
#include "check/digest.hpp"
#include "check/fuzzer.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace dosc::check {
namespace {

/// Run one audited episode; returns the auditor for inspection.
template <typename Coordinator>
std::pair<sim::SimMetrics, std::uint64_t> audited(const sim::Scenario& scenario,
                                                  std::uint64_t seed, InvariantAuditor& auditor,
                                                  EventDigest* digest = nullptr) {
  sim::Simulator sim(scenario, seed);
  HookChain hooks{&auditor};
  if (digest != nullptr) hooks.add(digest);
  sim.set_audit_hook(&hooks);
  Coordinator coordinator;
  const sim::SimMetrics m = sim.run(coordinator, &auditor);
  return {m, digest != nullptr ? digest->digest() : 0};
}

TEST(InvariantAuditor, CleanOnBaseScenario) {
  const sim::Scenario scenario = sim::make_base_scenario(3).with_end_time(2000.0);
  InvariantAuditor auditor;
  const auto [metrics, _] = audited<baselines::ShortestPathCoordinator>(scenario, 7, auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(auditor.events_audited(), metrics.generated);
  EXPECT_EQ(auditor.completions_seen(), metrics.succeeded);
  EXPECT_EQ(auditor.drops_seen(), metrics.dropped);
  EXPECT_GT(metrics.generated, 0u);
}

TEST(InvariantAuditor, CleanWithStartupDelaysAndIdleTimeouts) {
  // Startup delay + short idle timeout exercise the instance lifecycle
  // checks (creation ready_time, idle-removal legality) on every event.
  const sim::Scenario scenario = test::tiny_scenario(
      test::line3(), test::one_component_catalog(5.0, /*startup=*/3.0, /*idle=*/12.0),
      {.ingress = {0}, .egress = 2, .end_time = 400.0, .interarrival = 7.0});
  InvariantAuditor auditor;
  const auto [metrics, _] = audited<baselines::GcaspCoordinator>(scenario, 11, auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_EQ(metrics.generated, metrics.succeeded + metrics.dropped);
}

TEST(InvariantAuditor, DetectsOutOfOrderEventStream) {
  // Feed the auditor a crafted stream directly: time running backwards and
  // a seq tie-break violation must both be flagged.
  const sim::Scenario scenario = sim::make_base_scenario(2);
  sim::Simulator sim(scenario, 1);  // never run; provides consistent state
  InvariantAuditor auditor;
  auditor.on_episode_start(sim);
  auditor.on_event(sim, {.time = 5.0, .seq = 10, .kind = sim::EventKind::kPeriodic});
  auditor.on_event(sim, {.time = 3.0, .seq = 11, .kind = sim::EventKind::kPeriodic});
  auditor.on_event(sim, {.time = 3.0, .seq = 11, .kind = sim::EventKind::kPeriodic});
  EXPECT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.total_violations(), 2u);
  EXPECT_NE(auditor.report().find("backwards"), std::string::npos);
  EXPECT_NE(auditor.report().find("out of scheduling order"), std::string::npos);
}

TEST(EventDigest, ReproducibleAndSeedSensitive) {
  const sim::Scenario scenario = sim::make_base_scenario(2).with_end_time(1000.0);
  InvariantAuditor a1, a2, a3;
  EventDigest d1, d2, d3;
  const auto [m1, h1] = audited<baselines::ShortestPathCoordinator>(scenario, 3, a1, &d1);
  const auto [m2, h2] = audited<baselines::ShortestPathCoordinator>(scenario, 3, a2, &d2);
  const auto [m3, h3] = audited<baselines::ShortestPathCoordinator>(scenario, 4, a3, &d3);
  // Same (scenario, seed, coordinator) => bit-identical stream.
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(d1.events(), d2.events());
  EXPECT_GT(d1.events(), 0u);
  // A different episode seed changes traffic, hence the stream.
  EXPECT_NE(h1, h3);
  EXPECT_EQ(m1.generated, m2.generated);
}

TEST(EventDigest, DistinguishesCoordinators) {
  // Co-located ingress load on Abilene: SP and GCASP route differently, so
  // their event streams (and digests) must differ.
  const sim::Scenario scenario = sim::make_base_scenario(5).with_end_time(1500.0);
  InvariantAuditor a1, a2;
  EventDigest d1, d2;
  const auto [m1, h1] = audited<baselines::ShortestPathCoordinator>(scenario, 7, a1, &d1);
  const auto [m2, h2] = audited<baselines::GcaspCoordinator>(scenario, 7, a2, &d2);
  EXPECT_NE(h1, h2);
  // ... while the decision-independent traffic stream stays identical.
  EXPECT_EQ(m1.generated, m2.generated);
}

TEST(HookChain, FansOutToAllHooks) {
  const sim::Scenario scenario = sim::make_base_scenario(2);
  sim::Simulator sim(scenario, 1);
  EventDigest a, b;
  HookChain chain{&a};
  chain.add(&b);
  chain.on_episode_start(sim);
  chain.on_event(sim, {.time = 1.0, .seq = 1, .kind = sim::EventKind::kTrafficArrival});
  chain.on_episode_end(sim);
  EXPECT_EQ(a.events(), 1u);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), EventDigest{}.digest());
}

TEST(ScenarioFuzzer, DeterministicAndValid) {
  const ScenarioFuzzer fuzzer;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const sim::Scenario one = fuzzer.make(seed);
    const sim::Scenario two = fuzzer.make(seed);
    EXPECT_EQ(one.config().to_json().dump(), two.config().to_json().dump());
    EXPECT_GE(one.network().num_nodes(), 4u);
    EXPECT_LE(one.network().num_nodes(), 12u);
    EXPECT_TRUE(one.network().connected());
    EXPECT_GE(one.catalog().num_services(), 1u);
    for (const net::NodeId ingress : one.config().ingress) {
      EXPECT_NE(ingress, one.config().egress);
    }
  }
  // Different fuzz seeds produce different scenarios.
  EXPECT_NE(fuzzer.make(0).config().to_json().dump(),
            fuzzer.make(1).config().to_json().dump());
}

TEST(ScenarioFuzzer, ContentPinned) {
  // The fuzzer's exact output for its first 25 seeds: the FNV-1a 64 of the
  // concatenated scenario documents. Any change to a bound, a draw or the
  // draw order trips it.
  const ScenarioFuzzer fuzzer;
  std::string text;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    text += fuzzer.make(seed).to_json().dump(2) + "\n";
  }
  const std::string first = fuzzer.make(0).to_json().dump(2) + "\n";
  EXPECT_EQ(test::fnv1a64(first), 0x54078eb912cabe3eULL) << std::hex << test::fnv1a64(first);
  EXPECT_EQ(test::fnv1a64(text), 0xf5b4606be6a9f48aULL) << std::hex << test::fnv1a64(text);
}

TEST(Differential, AllCoordinatorsConsistentOnBaseScenario) {
  const sim::Scenario scenario = sim::make_base_scenario(2).with_end_time(800.0);
  const DifferentialResult result = run_differential(scenario);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_TRUE(result.ok()) << result.report();
  for (const CoordinatorRun& run : result.runs) {
    EXPECT_EQ(run.metrics.generated, result.runs.front().metrics.generated);
    EXPECT_GT(run.events, 0u);
  }
}

}  // namespace
}  // namespace dosc::check
