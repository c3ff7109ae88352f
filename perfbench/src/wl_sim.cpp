// sim: the event engine alone. The soak scenario with failures (Abilene,
// 5 ingress x Poisson 10 flows/ms, two flow templates, two node failures
// and one link failure, ~10^6 flows per 20 s simulated) coordinated by
// shortest path: the event queue, flow/hold pools, lazy cancellation and
// failure casualties do nearly all the work; no NN, observation or socket.
#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <numeric>

#include "baselines/shortest_path.hpp"
#include "check/digest.hpp"
#include "decorators.hpp"
#include "harness.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using dosc::sim::Simulator;

constexpr double kEndTimeMs = 20000.0;
/// Simulated time per timed chunk, ~0.5 ms of host time. Short chunks let
/// some repetition of each one run clear of the host's interruptions: over
/// 8 --seeds, flows/s spread by 4.3% with 10 ms chunks, 4.6% with 50 ms
/// and 6.9% with 1000 ms, all taken from the same runs.
constexpr double kChunkMs = 10.0;
constexpr std::size_t kChunks = static_cast<std::size_t>(kEndTimeMs / kChunkMs) + 1;  // + drain
/// Episodes per second of --seconds; each runs kReps times.
constexpr double kEpisodesPerSecond = 0.1;

dosc::sim::Scenario soak_scenario() {
  dosc::sim::ScenarioConfig config;
  config.name = "soak_failures";
  config.topology = "abilene";
  config.ingress = {0, 1, 2, 3, 4};
  config.egress = 7;
  config.node_cap_lo = 20.0;
  config.node_cap_hi = 40.0;
  config.link_cap_lo = 50.0;
  config.link_cap_hi = 100.0;
  config.end_time = kEndTimeMs;
  config.traffic = dosc::traffic::TrafficSpec::poisson(0.1);
  config.flows = {dosc::sim::FlowTemplate{.service = 0, .rate = 1.0, .duration = 1.0,
                                          .deadline = 100.0, .weight = 1.0},
                  dosc::sim::FlowTemplate{.service = 0, .rate = 1.0, .duration = 1.0,
                                          .deadline = 60.0, .weight = 0.5}};
  config.failures = {{dosc::sim::FailureEvent::Kind::kNode, 5, 5000.0, 2000.0},
                     {dosc::sim::FailureEvent::Kind::kNode, 10, 12000.0, 3000.0},
                     {dosc::sim::FailureEvent::Kind::kLink, 3, 8000.0, 1000.0}};
  return dosc::sim::Scenario(config, dosc::sim::make_video_streaming_catalog());
}

struct Episode {
  dosc::sim::SimMetrics metrics;
  std::array<std::uint64_t, dosc::sim::kNumEventKinds> events{};
  Simulator::EngineStats stats;
  std::array<double, kChunks> chunk_s{};      ///< wall time (layer table)
  std::array<double, kChunks> chunk_cpu_s{};  ///< CPU time (end-to-end metrics)
  double outside_s = 0.0;  ///< construction, start and finish
  LayerTime decide;

  std::uint64_t dispatched() const {
    return std::accumulate(events.begin(), events.end(), std::uint64_t{0});
  }
  bool same_work(const Episode& o) const {
    return same_metrics(metrics, o.metrics) && events == o.events &&
           stats.events_skipped == o.stats.events_skipped &&
           stats.peak_event_heap == o.stats.peak_event_heap;
  }
};

Episode run_episode(const dosc::sim::Scenario& scenario, std::uint64_t seed, bool traced) {
  Episode ep;
  dosc::baselines::ShortestPathCoordinator sp;
  TimedCoordinator timed(sp);
  dosc::sim::Coordinator& coordinator = traced ? static_cast<dosc::sim::Coordinator&>(timed) : sp;
  const Clock::time_point t0 = Clock::now();
  Simulator sim(scenario, seed);
  sim.start(coordinator);
  Clock::time_point last = Clock::now();
  double outside = seconds_between(t0, last);
  double last_cpu = cpu_seconds();
  for (std::size_t c = 0; c < kChunks; ++c) {
    const double limit = c + 1 < kChunks ? (c + 1) * kChunkMs
                                         : std::numeric_limits<double>::infinity();
    sim.advance_until(limit);
    const Clock::time_point now = Clock::now();
    const double now_cpu = cpu_seconds();
    ep.chunk_s[c] = seconds_between(last, now);
    ep.chunk_cpu_s[c] = now_cpu - last_cpu;
    last = now;
    last_cpu = now_cpu;
  }
  ep.metrics = sim.finish();
  outside += seconds_between(last, Clock::now());
  ep.outside_s = outside;
  ep.events = sim.events_by_kind();
  ep.stats = sim.engine_stats();
  ep.decide = timed.decide_time();
  return ep;
}

// Episode 0 at the default seed, pinned (ISA-independent: no NN).
constexpr std::uint64_t kPinnedGenerated = 999653;
constexpr std::uint64_t kPinnedSucceeded = 311587;
constexpr std::uint64_t kPinnedEvents = 8877031;
constexpr std::uint64_t kPinnedDigest = 10097367986081592418ULL;

struct Pass {
  std::vector<std::vector<Episode>> reps;  ///< [episode][repetition]
  double wall_s = 0.0;
  double build_s = 0.0;

  /// CPU seconds over the fastest repetition of every chunk; `chunk_us`
  /// gets each chunk's fastest time scaled to host us per simulated second.
  double best_seconds(std::vector<double>* chunk_us) const {
    double total = 0.0;
    for (const std::vector<Episode>& r : reps) {
      for (std::size_t c = 0; c < kChunks; ++c) {
        double best = r[0].chunk_cpu_s[c];
        for (const Episode& e : r) best = std::min(best, e.chunk_cpu_s[c]);
        total += best;
        if (chunk_us != nullptr && c + 1 < kChunks) {
          chunk_us->push_back(best * 1e6 * (1000.0 / kChunkMs));
        }
      }
    }
    return total;
  }
  std::uint64_t flows() const {
    std::uint64_t n = 0;
    for (const std::vector<Episode>& r : reps) n += r[0].metrics.generated;
    return n;
  }
};

Pass run_pass(const Args& args, std::size_t episodes, std::size_t reps, bool traced) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  const dosc::sim::Scenario scenario = soak_scenario();
  pass.build_s = seconds_between(t0, Clock::now());
  pass.reps.resize(episodes);
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t e = 0; e < episodes; ++e) {
      pin_to(cpu_for_rep(r + e));
      pass.reps[e].push_back(run_episode(scenario, derive_seed(args.seed, e), traced));
    }
  }
  unpin();
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

}  // namespace

Result run_sim(const Args& args) {
  Result result;
  const std::size_t episodes =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds * kEpisodesPerSecond + 0.5));

  // Set-up: scenario build (topology + all-pairs shortest paths), simulator
  // construction and start, repeated kReps times; the median is reported.
  std::vector<double> setup;
  for (std::size_t r = 0; r < kReps; ++r) {
    pin_to(cpu_for_rep(r));
    dosc::baselines::ShortestPathCoordinator sp;
    const Clock::time_point t0 = Clock::now();
    const dosc::sim::Scenario scenario = soak_scenario();
    Simulator sim(scenario, derive_seed(args.seed, 0));
    sim.start(sp);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  unpin();

  // A traced run splits the repetitions between an untraced and a traced
  // pass over the same episodes.
  const std::size_t reps = args.trace ? kReps / 2 : kReps;
  const Pass pass = run_pass(args, episodes, reps, false);
  std::vector<double> chunk_us;
  const double best_s = pass.best_seconds(&chunk_us);
  const double flows_per_s = pass.flows() / best_s;

  // Output checks: every repetition of an episode did identical work, flows
  // are conserved, and an untimed digest pass reproduces episode 0.
  const dosc::sim::Scenario scenario = soak_scenario();
  for (const std::vector<Episode>& r : pass.reps) {
    for (const Episode& e : r) {
      result.attempted += 1;
      result.check(e.same_work(r[0]), "sim: repetitions of one episode differ");
      result.check(e.metrics.generated == e.metrics.succeeded + e.metrics.dropped,
                   "sim: flows not conserved");
    }
  }
  dosc::check::EventDigest digest;
  dosc::baselines::ShortestPathCoordinator sp;
  Simulator digest_sim(scenario, derive_seed(args.seed, 0));
  digest_sim.set_audit_hook(&digest);
  const dosc::sim::SimMetrics digest_metrics = digest_sim.run(sp);
  const Episode& first = pass.reps[0][0];
  result.attempted += 1;
  result.check(same_metrics(digest_metrics, first.metrics) &&
                   digest.events() == first.dispatched(),
               "sim: digest pass differs from the timed episode");
  if (args.seed == kDefaultSeed) {
    result.check(first.metrics.generated == kPinnedGenerated &&
                     first.metrics.succeeded == kPinnedSucceeded &&
                     first.dispatched() == kPinnedEvents && digest.digest() == kPinnedDigest,
                 "sim: pinned episode-0 values changed");
  }
  std::fprintf(stderr, "sim episode0: generated %llu succeeded %llu events %llu digest %llu\n",
               static_cast<unsigned long long>(first.metrics.generated),
               static_cast<unsigned long long>(first.metrics.succeeded),
               static_cast<unsigned long long>(first.dispatched()),
               static_cast<unsigned long long>(digest.digest()));

  std::uint64_t events = 0, skipped = 0, decisions = 0;
  for (const std::vector<Episode>& r : pass.reps) {
    events += r[0].dispatched();
    skipped += r[0].stats.events_skipped;
    decisions += r[0].metrics.decisions;
  }
  result.counts = {{"episodes", pass.reps.size()},
                   {"flows", pass.flows()},
                   {"events", events},
                   {"events_skipped", skipped},
                   {"decisions", decisions}};

  if (!args.trace) {
    add_end_to_end(result, flows_per_s, percentile(chunk_us, 50.0), median(setup));
    return result;
  }

  // Traced pass: same episodes, sp decide timed by a Coordinator decorator.
  const Pass traced = run_pass(args, episodes, reps, true);
  const double traced_flows_per_s = traced.flows() / traced.best_seconds(nullptr);
  double chunks_s = 0.0, outside_s = 0.0;
  LayerTime decide;
  std::uint64_t all_events = 0;
  std::size_t queue_peak = 0;
  for (const std::vector<Episode>& r : traced.reps) {
    for (const Episode& e : r) {
      result.check(e.same_work(r[0]), "sim: traced repetition differs");
      for (const double s : e.chunk_s) chunks_s += s;
      outside_s += e.outside_s;
      decide.ticks += e.decide.ticks;
      decide.calls += e.decide.calls;
      all_events += e.dispatched();
      queue_peak = std::max(queue_peak, e.stats.peak_event_heap);
    }
  }
  const double engine_ms = chunks_s * 1e3 - decide.ms();
  const double wall_ms = traced.wall_s * 1e3;
  const double residual_ms = wall_ms - traced.build_s * 1e3 - outside_s * 1e3 - chunks_s * 1e3;
  result.wall_ms = wall_ms;
  result.layer_ms = {{"net.scenario_build", traced.build_s * 1e3},
                     {"sim.construct_start_finish", outside_s * 1e3},
                     {"sim.engine", engine_ms},
                     {"baselines.decide", decide.ms()},
                     {"residual", residual_ms}};

  LayerReport layers;
  layers.set("sim.engine_ns_per_event", engine_ms * 1e6 / all_events);
  layers.set("sim.events_per_flow", static_cast<double>(events) / pass.flows());
  layers.set("sim.skipped_share", static_cast<double>(skipped) / (events + skipped));
  layers.set("sim.event_queue_peak", static_cast<double>(queue_peak));
  layers.set("baselines.decide_ns", decide.ns_per_call());
  layers.set("net.scenario_build_ms", traced.build_s * 1e3);
  layers.set("residual_share", residual_ms / wall_ms);
  layers.set("trace_overhead", flows_per_s / traced_flows_per_s - 1.0);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
