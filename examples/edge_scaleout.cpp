// Domain example: scale-out on a large provider topology (Interroute, 110
// nodes) — the paper's Sec. V-E scenario. Shows the property that makes the
// approach practical at this size: the policy's observation/action spaces
// depend on the network DEGREE, not the node count, so one trained network
// serves as the local agent of all 110 nodes and decides in ~microseconds.
//
//   ./examples/edge_scaleout [iterations]
#include <cstdio>
#include <cstdlib>

#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "core/observation.hpp"
#include "core/trainer.hpp"
#include "net/topology_zoo.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"

using namespace dosc;

int main(int argc, char** argv) {
  const sim::Scenario scenario = sim::make_base_scenario(
      2, traffic::TrafficSpec::poisson(10.0), 100.0, "interroute");
  const std::size_t degree = scenario.network().max_degree();
  std::printf("Interroute: %zu nodes, %zu links, degree %zu\n",
              scenario.network().num_nodes(), scenario.network().num_links(), degree);
  std::printf("Observation size: %zu (4*degree+4 — independent of the 110 nodes)\n",
              core::observation_dim(degree));
  std::printf("Action space: %zu (local + one per neighbour slot)\n\n",
              scenario.num_actions());

  core::TrainingConfig config;
  config.iterations = (argc > 1) ? static_cast<std::size_t>(std::atoi(argv[1])) : 150;
  config.num_seeds = 1;
  config.updater.lr_decay_updates = config.iterations;
  std::printf("Training (%zu iterations)...\n", config.iterations);
  const core::TrainedPolicy policy = core::train_distributed_policy(scenario, config);
  const rl::ActorCritic net = policy.instantiate();

  std::printf("Evaluating all algorithms on 3 x 5000 ms episodes...\n\n");
  const sim::Scenario eval = scenario.with_end_time(5000.0);
  util::RunningStats drl;
  util::RunningStats gcasp;
  util::RunningStats sp;
  telemetry::Histogram decision_us{telemetry::latency_histogram_config()};
  for (std::uint64_t seed = 300; seed < 303; ++seed) {
    {
      core::DistributedDrlCoordinator coordinator(net, degree);
      sim::Simulator sim(eval, seed);
      sim.enable_decision_timing(true);
      const sim::SimMetrics metrics = sim.run(coordinator);
      drl.add(metrics.success_ratio());
      decision_us.merge(metrics.decision_time);
    }
    {
      baselines::GcaspCoordinator coordinator;
      sim::Simulator sim(eval, seed);
      gcasp.add(sim.run(coordinator).success_ratio());
    }
    {
      baselines::ShortestPathCoordinator coordinator;
      sim::Simulator sim(eval, seed);
      sp.add(sim.run(coordinator).success_ratio());
    }
  }
  std::printf("  DistDRL : success %.3f  (%.1f us per local decision, %llu decisions)\n",
              drl.mean(), decision_us.mean(),
              static_cast<unsigned long long>(decision_us.count()));
  std::printf("  GCASP   : success %.3f\n", gcasp.mean());
  std::printf("  SP      : success %.3f  (the paper: SP fails on Interroute)\n", sp.mean());
  return 0;
}
