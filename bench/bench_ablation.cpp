// Ablations of the paper's design choices (DESIGN.md §3 footnote), on the
// base scenario (Abilene, 2 ingress, Poisson):
//   1. Optimizer: ACKTR (the paper's choice) vs RMSprop-A2C vs Adam —
//      same sample budget.
//   2. Reward shaping (Sec. IV-B3): full shaping vs terminal-only rewards
//      (+-10) vs over-weighted shaping (the paper warns strong auxiliary
//      rewards encourage degenerate behaviour).
//   3. Parallel environments: l = 1 vs l = 4 (A3C-style data diversity).
// Reported: greedy evaluation success ratio after the same number of
// training iterations.
#include <cstdio>

#include "bench_common.hpp"
#include "util/string_util.hpp"

using namespace dosc;

namespace {

/// Trains one seed of `config` (a copy of scale.training with one ablated
/// setting) and evaluates it greedily.
double train_and_eval(const sim::Scenario& scenario, const bench::BenchScale& scale,
                      core::TrainingConfig config) {
  config.num_seeds = 1;
  const core::TrainedPolicy policy = core::train_distributed_policy(scenario, config);
  const rl::ActorCritic net = policy.instantiate();
  // Evaluate under the same observation mask the policy was trained with.
  return core::evaluate_policy(scenario, net, config.reward, scale.eval_seeds,
                               scale.eval_time, 424242, config.observation_mask)
      .success_ratio;
}

}  // namespace

int main() {
  const bench::BenchScale scale = bench::BenchScale::from_env();
  std::printf("Ablations on the base scenario (%s scale, %zu iterations each)\n",
              scale.full ? "full" : "quick", scale.training.iterations);
  const sim::Scenario scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0));

  bench::print_header("Ablation 1: training optimizer", {"success"});
  for (const rl::OptimizerKind kind :
       {rl::OptimizerKind::kAcktr, rl::OptimizerKind::kRmsProp, rl::OptimizerKind::kAdam}) {
    core::TrainingConfig config = scale.training;
    config.updater.optimizer = kind;
    if (kind != rl::OptimizerKind::kAcktr) config.updater.learning_rate = 0.002;
    const double success = train_and_eval(scenario, scale, config);
    bench::print_row(rl::optimizer_kind_name(kind), {util::format_double(success, 3)});
  }

  bench::print_header("Ablation 2: reward shaping", {"success"});
  {
    core::TrainingConfig config = scale.training;  // full shaping (paper)
    bench::print_row("full shaping (paper)",
                     {util::format_double(train_and_eval(scenario, scale, config), 3)});
  }
  {
    core::TrainingConfig config = scale.training;
    config.reward.instance_bonus_scale = 0.0;
    config.reward.link_penalty_scale = 0.0;
    config.reward.park_penalty_scale = 0.0;
    bench::print_row("terminal only (+-10)",
                     {util::format_double(train_and_eval(scenario, scale, config), 3)});
  }
  {
    core::TrainingConfig config = scale.training;
    config.reward.instance_bonus_scale = 20.0;  // shaping rivals the terminal reward
    bench::print_row("over-weighted shaping",
                     {util::format_double(train_and_eval(scenario, scale, config), 3)});
  }

  bench::print_header("Ablation 3: parallel training environments", {"success"});
  for (const std::size_t envs : {std::size_t{1}, std::size_t{4}}) {
    core::TrainingConfig config = scale.training;
    config.parallel_envs = envs;
    const double success = train_and_eval(scenario, scale, config);
    bench::print_row("l = " + std::to_string(envs), {util::format_double(success, 3)});
  }

  // Which observation component earns its place (Sec. IV-B1)? Train and
  // evaluate with one part zeroed at a time.
  bench::print_header("Ablation 4: observation components", {"success"});
  {
    core::TrainingConfig config = scale.training;
    bench::print_row("full observation",
                     {util::format_double(train_and_eval(scenario, scale, config), 3)});
  }
  const struct {
    const char* label;
    void (*disable)(core::ObservationMask&);
  } parts[] = {
      {"without F (flow)", [](core::ObservationMask& m) { m.flow_attrs = false; }},
      {"without R^L (links)", [](core::ObservationMask& m) { m.link_util = false; }},
      {"without R^V (nodes)", [](core::ObservationMask& m) { m.node_util = false; }},
      {"without D (egress)", [](core::ObservationMask& m) { m.delays = false; }},
      {"without X (instances)", [](core::ObservationMask& m) { m.instances = false; }},
  };
  for (const auto& part : parts) {
    core::TrainingConfig config = scale.training;
    part.disable(config.observation_mask);
    const double success = train_and_eval(scenario, scale, config);
    bench::print_row(part.label, {util::format_double(success, 3)});
  }
  return 0;
}
