// Scale sweep across the scenario corpus: success ratio and event-engine
// throughput as the substrate grows from a k=4 fat-tree (36 nodes) through
// a k=8 fat-tree (208 nodes) to a 500-node Waxman WAN.
//
// Every swept scenario is a named corpus entry, loaded as
// "corpus:<name>" (src/sim/corpus.hpp), so the topologies, load programs
// and seeds here are exactly the ones test_corpus pins by content hash —
// the sweep measures how the simulator and the coordinators behave as node
// count grows, on reproducible inputs.
//
// Coordinators: shortest-path and GCASP baselines, plus the distributed
// DRL coordinator driven by an untrained randomly-initialised policy.
// Training a policy per scale point would dwarf the sweep itself (and the
// per-figure harnesses already measure trained-policy quality); the
// random-init agent still pays the full observation/inference cost per
// decision, which is the scaling behaviour this benchmark tracks.
//
// Reported per (scenario, coordinator): success ratio mean +- stddev over
// the eval seeds, mean e2e delay, dispatched events/s, and wall ms.
// Everything lands in BENCH_scale_sweep.json ("dosc.bench.v1").
// DOSC_BENCH_SMOKE=1 (CI) shortens the horizon and sweeps the three
// canonical sizes; the full run adds the intermediate corpus entries.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "core/drl_env.hpp"
#include "serve/daemon.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

using namespace dosc;

namespace {

bool smoke() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_BENCH_SMOKE");
    return env != nullptr && std::string_view(env) != "0";
  }();
  return on;
}

struct SweepPoint {
  std::string scenario;
  std::string algo;
  std::size_t nodes = 0;
  std::size_t links = 0;
  util::RunningStats success;
  util::RunningStats e2e_delay;
  std::uint64_t events = 0;
  double wall_ms = 0.0;

  double events_per_sec() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(events) / wall_ms : 0.0;
  }
};

SweepPoint run_point(const sim::Scenario& scenario, const std::string& algo,
                     const core::TrainedPolicy* policy, std::size_t seeds) {
  SweepPoint point;
  point.scenario = scenario.config().name;
  point.algo = algo;
  point.nodes = scenario.network().num_nodes();
  point.links = scenario.network().num_links();
  for (std::size_t s = 0; s < seeds; ++s) {
    sim::Simulator simulator(scenario, 424242 + s);
    const util::Timer timer;
    sim::SimMetrics metrics;
    if (algo == "dist") {
      static thread_local std::optional<rl::ActorCritic> net;
      net = policy->instantiate();
      core::DistributedDrlCoordinator coordinator(*net, scenario.network().max_degree());
      metrics = simulator.run(coordinator);
    } else if (algo == "gcasp") {
      baselines::GcaspCoordinator coordinator;
      metrics = simulator.run(coordinator);
    } else {
      baselines::ShortestPathCoordinator coordinator;
      metrics = simulator.run(coordinator);
    }
    point.wall_ms += timer.elapsed_micros() / 1000.0;
    point.success.add(metrics.success_ratio());
    if (metrics.e2e_delay.count() > 0) point.e2e_delay.add(metrics.e2e_delay.mean());
    const auto& by_kind = simulator.events_by_kind();
    point.events += std::accumulate(by_kind.begin(), by_kind.end(), std::uint64_t{0});
  }
  return point;
}

util::Json to_json(const SweepPoint& p) {
  return util::Json(util::Json::Object{
      {"scenario", util::Json(p.scenario)},
      {"algo", util::Json(p.algo)},
      {"nodes", util::Json(p.nodes)},
      {"links", util::Json(p.links)},
      {"success", util::Json(util::Json::Object{
                      {"mean", util::Json(p.success.mean())},
                      {"stddev", util::Json(p.success.stddev())},
                      {"seeds", util::Json(static_cast<std::size_t>(p.success.count()))},
                  })},
      {"e2e_delay_ms", util::Json(p.e2e_delay.count() > 0 ? p.e2e_delay.mean() : 0.0)},
      {"events_dispatched", util::Json(static_cast<std::size_t>(p.events))},
      {"events_per_sec", util::Json(p.events_per_sec())},
      {"wall_ms", util::Json(p.wall_ms)},
  });
}

}  // namespace

int main() {
  // ft-k4 (36) -> ft-k8 (208) -> wan-500; the full run fills in the
  // intermediate corpus sizes (99, 100, 250 nodes).
  std::vector<std::string> entries = {"ft_k4_steady", "ft_k8_steady", "wan_500_flash"};
  if (!smoke()) {
    entries = {"ft_k4_steady", "ft_k6_flash",     "ft_k8_steady",
               "wan_100_steady", "wan_250_diurnal", "wan_500_flash"};
  }
  const double eval_time = smoke() ? 600.0 : 4000.0;
  const std::size_t seeds = smoke() ? 1 : 3;

  std::printf("scale_sweep (%s: %zu scenario(s) x sp/gcasp/dist, %zu seed(s) x %.0f ms)\n",
              smoke() ? "smoke" : "full", entries.size(), seeds, eval_time);
  std::printf("%-16s %6s %6s %-6s %14s %10s %12s %9s\n", "scenario", "nodes", "links",
              "algo", "success", "e2e_ms", "events/s", "wall_ms");

  util::Json::Array results;
  for (const std::string& name : entries) {
    const sim::Scenario scenario = sim::load_scenario("corpus:" + name).with_end_time(eval_time);
    const core::TrainedPolicy policy = serve::make_untrained_policy(scenario);
    for (const char* algo : {"sp", "gcasp", "dist"}) {
      const SweepPoint p = run_point(scenario, algo, &policy, seeds);
      std::printf("%-16s %6zu %6zu %-6s %7.3f +-%5.3f %10.1f %12.0f %9.1f\n",
                  p.scenario.c_str(), p.nodes, p.links, algo, p.success.mean(),
                  p.success.stddev(), p.e2e_delay.count() > 0 ? p.e2e_delay.mean() : 0.0,
                  p.events_per_sec(), p.wall_ms);
      results.push_back(to_json(p));
    }
  }

  const util::Json doc(util::Json::Object{
      {"schema", util::Json("dosc.bench.v1")},
      {"benchmark", util::Json("scale_sweep")},
      {"smoke", util::Json(smoke())},
      {"results", util::Json(std::move(results))},
  });
  const std::string path = "BENCH_scale_sweep.json";
  doc.save_file(path, 2);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
