// Cross-module integration: every coordination algorithm runs end-to-end on
// every Table-I topology; the full train->deploy->evaluate pipeline works on
// the paper's base scenario; and the structural scalability claims hold
// (observation/action sizes depend on the degree, not the node count).
#include <gtest/gtest.h>

#include "baselines/central_drl.hpp"
#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "core/observation.hpp"
#include "core/trainer.hpp"
#include "net/topology_zoo.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace dosc {
namespace {

class TopologySmoke : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologySmoke, AllAlgorithmsRunOnAllTopologies) {
  const sim::Scenario scenario = sim::make_base_scenario(
      2, traffic::TrafficSpec::poisson(10.0), 100.0, GetParam(), /*end_time=*/500.0);

  // SP and GCASP.
  {
    baselines::ShortestPathCoordinator sp;
    sim::Simulator sim(scenario, 1);
    const sim::SimMetrics m = sim.run(sp);
    EXPECT_EQ(m.succeeded + m.dropped, m.generated);
  }
  {
    baselines::GcaspCoordinator gcasp;
    sim::Simulator sim(scenario, 1);
    const sim::SimMetrics m = sim.run(gcasp);
    EXPECT_EQ(m.succeeded + m.dropped, m.generated);
    EXPECT_EQ(m.drops_by_reason[static_cast<std::size_t>(sim::DropReason::kInvalidAction)],
              0u);
  }
  // Untrained distributed DRL (random policy) — must run without errors.
  {
    rl::ActorCriticConfig config;
    config.obs_dim = core::observation_dim(scenario.network().max_degree());
    config.num_actions = scenario.num_actions();
    config.hidden = {8};
    config.seed = 2;
    const rl::ActorCritic net(config);
    core::DistributedDrlCoordinator coordinator(net, scenario.network().max_degree());
    sim::Simulator sim(scenario, 1);
    const sim::SimMetrics m = sim.run(coordinator);
    EXPECT_EQ(m.succeeded + m.dropped, m.generated);
  }
  // Untrained central DRL.
  {
    rl::ActorCriticConfig net_config;
    net_config.obs_dim = baselines::central_observation_dim(scenario);
    net_config.num_actions = scenario.network().num_nodes();
    net_config.hidden = {8};
    net_config.seed = 3;
    const rl::ActorCritic net(net_config);
    baselines::CentralDrlCoordinator coordinator(net, core::RewardConfig{});
    sim::Simulator sim(scenario, 1);
    const sim::SimMetrics m = sim.run(coordinator, &coordinator);
    EXPECT_EQ(m.succeeded + m.dropped, m.generated);
  }
}

INSTANTIATE_TEST_SUITE_P(TableI, TopologySmoke,
                         ::testing::Values("abilene", "bt_europe", "china_telecom",
                                           "interroute"));

TEST(Scalability, ObservationSizeDependsOnDegreeNotNodeCount) {
  // The paper's central scalability argument (Sec. I): observation and
  // action spaces are invariant to |V| and scale with Delta_G only.
  const net::Network abilene = net::abilene();        // 11 nodes, degree 3
  const net::Network interroute = net::interroute();  // 110 nodes, degree 7
  EXPECT_EQ(core::observation_dim(abilene.max_degree()), 16u);
  EXPECT_EQ(core::observation_dim(interroute.max_degree()), 32u);
  // 10x more nodes -> only 2x observation (via degree), not 10x.
  EXPECT_LT(core::observation_dim(interroute.max_degree()),
            core::observation_dim(abilene.max_degree()) * 3);
}

TEST(Integration, TrainDeployEvaluateOnBaseScenario) {
  const sim::Scenario scenario = sim::make_base_scenario(
      2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 20000.0);
  core::TrainingConfig config;
  config.hidden = {32, 32};
  config.num_seeds = 1;
  config.parallel_envs = 2;
  config.iterations = 100;
  config.train_episode_time = 800.0;
  config.eval_episodes = 2;
  config.eval_episode_time = 1000.0;
  const core::TrainedPolicy policy = train_distributed_policy(scenario, config);
  EXPECT_EQ(policy.net_config.obs_dim, 16u);
  EXPECT_EQ(policy.net_config.num_actions, 4u);

  // Deploy the single trained network as the shared policy of every node's
  // agent and evaluate on longer unseen episodes.
  const rl::ActorCritic net = policy.instantiate();
  const core::EvalResult eval =
      core::evaluate_policy(scenario, net, config.reward, 3, 2000.0, 777);
  // 100 iterations is far from converged, but must already clear a random
  // policy by a wide margin (random drops almost everything via invalid
  // actions and wandering).
  EXPECT_GT(eval.success_ratio, 0.4);
}

TEST(Integration, TrainedPolicyTransfersAcrossLoadLevels) {
  // Mini version of Fig. 8b: the agent trained at 2 ingresses must still
  // function (not collapse to ~0) when evaluated with 4 ingresses.
  const sim::Scenario train_scenario = sim::make_base_scenario(2);
  core::TrainingConfig config;
  config.hidden = {32, 32};
  config.num_seeds = 1;
  config.parallel_envs = 2;
  config.iterations = 100;
  config.train_episode_time = 800.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 600.0;
  const core::TrainedPolicy policy = train_distributed_policy(train_scenario, config);
  const rl::ActorCritic net = policy.instantiate();

  const sim::Scenario heavy = sim::make_base_scenario(4);
  const core::EvalResult eval =
      core::evaluate_policy(heavy, net, config.reward, 2, 1500.0, 31);
  EXPECT_GT(eval.success_ratio, 0.2);
}

TEST(Integration, DistributedInferenceTimingIsCollected) {
  const sim::Scenario scenario = sim::make_base_scenario(
      2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene", 300.0);
  rl::ActorCriticConfig config;
  config.obs_dim = core::observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.num_actions();
  config.hidden = {64, 64};
  config.seed = 5;
  const rl::ActorCritic net(config);
  core::DistributedDrlCoordinator coordinator(net, scenario.network().max_degree());
  sim::Simulator sim(scenario, 9);
  sim.enable_decision_timing(true);
  const sim::SimMetrics metrics = sim.run(coordinator);
  ASSERT_GT(metrics.decision_time.count(), 10u);
  // The paper reports ~1 ms per decision on 2017-era hardware with
  // TensorFlow; our native implementation must comfortably stay under that.
  EXPECT_LT(metrics.decision_time.mean(), 1000.0);
  EXPECT_GT(metrics.decision_time.percentile(99.0),
            metrics.decision_time.percentile(50.0) * 0.999);
}

}  // namespace
}  // namespace dosc
