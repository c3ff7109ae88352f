#include "check/differential.hpp"

#include <functional>
#include <iomanip>
#include <sstream>
#include <utility>

#include "baselines/central_drl.hpp"
#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "check/digest.hpp"
#include "core/drl_env.hpp"
#include "core/observation.hpp"
#include "rl/actor_critic.hpp"

namespace dosc::check {

namespace {

constexpr std::uint64_t kEpisodeSeed = 1;
constexpr std::uint64_t kPolicySeed = 42;

CoordinatorRun audited_run(const sim::Scenario& scenario, std::string name,
                           sim::Coordinator& coordinator) {
  sim::Simulator sim(scenario, kEpisodeSeed);
  InvariantAuditor auditor;
  EventDigest digest;
  HookChain chain{&auditor, &digest};
  sim.set_audit_hook(&chain);

  CoordinatorRun run;
  run.name = std::move(name);
  run.metrics = sim.run(coordinator, &auditor);
  run.digest = digest.digest();
  run.events = digest.events();
  run.violations = auditor.total_violations();
  run.violation_messages = auditor.violations();
  return run;
}

}  // namespace

DifferentialResult run_differential(const sim::Scenario& scenario) {
  const std::size_t max_degree = scenario.network().max_degree();
  DifferentialResult result;

  {
    rl::ActorCriticConfig config;
    config.obs_dim = core::observation_dim(max_degree);
    config.num_actions = max_degree + 1;
    config.hidden = {32, 32};
    config.seed = kPolicySeed;
    const rl::ActorCritic policy(config);
    core::DistributedDrlCoordinator coordinator(policy, max_degree);
    result.runs.push_back(audited_run(scenario, "dist_drl", coordinator));
  }
  {
    rl::ActorCriticConfig config;
    config.obs_dim = baselines::central_observation_dim(scenario);
    config.num_actions = scenario.network().num_nodes();
    config.hidden = {32, 32};
    config.seed = kPolicySeed + 1;
    const rl::ActorCritic policy(config);
    baselines::CentralDrlCoordinator coordinator(policy, core::RewardConfig{});
    result.runs.push_back(audited_run(scenario, "central_drl", coordinator));
  }
  {
    baselines::GcaspCoordinator coordinator;
    result.runs.push_back(audited_run(scenario, "gcasp", coordinator));
  }
  {
    baselines::ShortestPathCoordinator coordinator;
    result.runs.push_back(audited_run(scenario, "shortest_path", coordinator));
  }

  // Cross-run accounting: identical arrival stream => identical `generated`,
  // and every run must fully account for each generated flow.
  const std::uint64_t generated = result.runs.front().metrics.generated;
  for (const CoordinatorRun& run : result.runs) {
    if (run.metrics.generated != generated) {
      result.mismatches.push_back(
          run.name + " generated " + std::to_string(run.metrics.generated) + " flows, " +
          result.runs.front().name + " generated " + std::to_string(generated) +
          " — traffic must be coordinator-independent");
    }
    if (run.metrics.succeeded + run.metrics.dropped != run.metrics.generated) {
      result.mismatches.push_back(
          run.name + " lost flows: " + std::to_string(run.metrics.succeeded) + " + " +
          std::to_string(run.metrics.dropped) + " != " +
          std::to_string(run.metrics.generated));
    }
  }
  return result;
}

std::string DifferentialResult::report() const {
  std::ostringstream out;
  for (const CoordinatorRun& run : runs) {
    out << std::left << std::setw(14) << run.name << " generated " << std::setw(5)
        << run.metrics.generated << " succeeded " << std::setw(5) << run.metrics.succeeded
        << " dropped " << std::setw(5) << run.metrics.dropped << " digest " << std::hex
        << std::setw(16) << run.digest << std::dec << " events " << run.events;
    if (run.violations != 0) out << "  [" << run.violations << " violations]";
    out << "\n";
    for (const std::string& v : run.violation_messages) out << "    " << v << "\n";
  }
  for (const std::string& m : mismatches) out << "  MISMATCH: " << m << "\n";
  return out.str();
}

}  // namespace dosc::check
