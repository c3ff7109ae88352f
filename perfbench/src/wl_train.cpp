// train: core::train_distributed_policy on the base scenario (Abilene,
// 2 ingress) with the 2x256 net, l = 4 environments rolled out by the
// batched driver on the calling thread, the trainer's default update size,
// and a fixed number of training seeds of kIterationsPerSeed iterations.
// The ACKTR update (KFAC factors included) is ~90% of an iteration; this is
// the only workload that runs rl::Updater, nn::Kfac, stochastic sampling and
// the trajectory buffer.
//
// Rows per iteration depend on how the seed's policy behaves (a fresh net
// that drops flows early makes fewer decisions), and an update has a large
// fixed cost, so with one training seed per run the iteration time and
// rows/s spread by a fifth from one --seed to the next. Each run therefore
// trains several seeds, as the paper's protocol does (k seeds), and reports
// over all their iterations.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/observation.hpp"
#include "core/policy_io.hpp"
#include "core/trainer.hpp"
#include "harness.hpp"
#include "nn/gemm.hpp"
#include "rl/rollout.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

/// Training seeds per second of --seconds; the training runs kTrainReps
/// times.
constexpr double kSeedsPerSecond = 0.4;
constexpr std::size_t kIterationsPerSeed = 2;
/// Repetitions of the whole training, rotated over the allowed CPUs. Fewer
/// than kReps: an iteration is long (~0.35 s), and the time goes further on
/// more training seeds.
constexpr std::size_t kTrainReps = 4;
// Final-parameter checksum at the default seed and the default seed count
// for --seconds 20, valid for the avx2+fma kernels only.
constexpr std::size_t kPinnedSeeds = 8;
constexpr std::uint64_t kPinnedChecksum = 3159414067357257191ULL;

dosc::core::TrainingConfig train_config(std::uint64_t seed, std::size_t seeds) {
  dosc::core::TrainingConfig config;
  config.hidden = {256, 256};
  config.num_seeds = seeds;
  config.parallel_envs = 4;
  config.iterations = kIterationsPerSeed;
  config.batched_rollout = true;
  config.seed_base = seed;
  // Seed selection needs an evaluation; keep it negligible next to training.
  config.eval_episodes = 1;
  config.eval_episode_time = 100.0;
  return config;
}

/// One training run: the instants that bound each iteration and
/// per-iteration counts.
struct Run {
  /// Call start, then one instant per progress callback: interval i ends
  /// with iteration i's update. An interval that opens a seed also holds
  /// the new net's init and the previous seed's greedy evaluation
  /// (one 100 ms episode, well under 1% of an iteration). CPU seconds.
  std::vector<double> at;
  std::vector<std::uint64_t> env_steps;    ///< rows collected per iteration
  std::vector<std::uint64_t> update_rows;  ///< UpdateStats::batch_size
  std::uint64_t checksum = 0;
};

Run train_once(const dosc::sim::Scenario& scenario, const dosc::core::TrainingConfig& config) {
  Run run;
  dosc::telemetry::MetricsRegistry& registry = dosc::telemetry::MetricsRegistry::global();
  std::uint64_t steps_seen = registry.counter("train.env_steps").value();
  run.at.push_back(cpu_seconds());
  const dosc::core::TrainedPolicy policy = dosc::core::train_distributed_policy(
      scenario, config, [&](const dosc::core::TrainingProgress& p) {
        run.at.push_back(cpu_seconds());
        const std::uint64_t steps = registry.counter("train.env_steps").value();
        run.env_steps.push_back(steps - steps_seen);
        steps_seen = steps;
        run.update_rows.push_back(p.update.batch_size);
      });
  run.checksum = dosc::core::policy_checksum(policy.parameters);
  return run;
}

struct Pass {
  std::vector<Run> reps;
  double wall_s = 0.0;
  double build_s = 0.0;

  /// Fastest repetition of each iteration interval.
  std::vector<double> best_iterations_s() const {
    std::vector<double> best;
    for (std::size_t i = 1; i < reps[0].at.size(); ++i) {
      double b = reps[0].at[i] - reps[0].at[i - 1];
      for (const Run& r : reps) b = std::min(b, r.at[i] - r.at[i - 1]);
      best.push_back(b);
    }
    return best;
  }
  /// Rows collected by all iterations.
  std::uint64_t rows() const {
    std::uint64_t n = 0;
    for (const std::uint64_t s : reps[0].env_steps) n += s;
    return n;
  }
};

Pass run_pass(Result& result, const Args& args, std::size_t seeds) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  const dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
  pass.build_s = seconds_between(t0, Clock::now());
  const dosc::core::TrainingConfig config = train_config(args.seed, seeds);
  const std::size_t iterations = seeds * kIterationsPerSeed;
  for (std::size_t r = 0; r < kTrainReps; ++r) {
    pin_to(cpu_for_rep(r));
    pass.reps.push_back(train_once(scenario, config));
    const Run& run = pass.reps.back();
    const Run& first = pass.reps.front();
    result.attempted += iterations;
    result.check(run.env_steps.size() == iterations, "train: missing progress callbacks",
                 iterations);
    result.check(run.checksum == first.checksum && run.env_steps == first.env_steps &&
                     run.update_rows == first.update_rows,
                 "train: repetitions trained different parameters", iterations);
  }
  unpin();
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

/// The trainer's own per-phase timings, read from the registry (sums are
/// exact; only the histograms' percentiles are bucketed).
struct TrainerTimes {
  double rollout_ms = 0.0, update_ms = 0.0, kfac_ms = 0.0;
  double width_sum = 0.0, width_count = 0.0;  ///< rl.rollout.batch_rows

  static TrainerTimes read() {
    const dosc::telemetry::MetricsRegistry& registry = dosc::telemetry::MetricsRegistry::global();
    const dosc::telemetry::Histogram width = registry.histogram("rl.rollout.batch_rows");
    return {registry.histogram("train.rollout_ms").sum(), registry.histogram("train.update_ms").sum(),
            registry.histogram("train.kfac_ms").sum(), width.sum(),
            static_cast<double>(width.count())};
  }
  TrainerTimes operator-(const TrainerTimes& o) const {
    return {rollout_ms - o.rollout_ms, update_ms - o.update_ms, kfac_ms - o.kfac_ms,
            width_sum - o.width_sum, width_count - o.width_count};
  }
};

}  // namespace

Result run_train(const Args& args) {
  Result result;
  // The trainer's own counters (train.env_steps) and histograms are read
  // through the registry; they cost a few registry writes per iteration.
  dosc::telemetry::set_enabled(true);
  std::size_t seeds =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.seconds * kSeedsPerSecond + 0.5));
  if (args.trace) seeds = std::max<std::size_t>(1, seeds / 2);
  const std::size_t iterations = seeds * kIterationsPerSeed;

  // Set-up: scenario build, policy init (2x256 actor and critic) and the
  // first training episode's simulator construction and start.
  std::vector<double> setup;
  for (std::size_t r = 0; r < kReps; ++r) {
    pin_to(cpu_for_rep(r));
    const Clock::time_point t0 = Clock::now();
    const dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
    const std::size_t degree = scenario.network().max_degree();
    dosc::rl::ActorCritic net({dosc::core::observation_dim(degree), degree + 1, {256, 256},
                               args.seed});
    dosc::sim::Simulator sim(scenario, dosc::core::episode_seed(args.seed, 0, 0, 0));
    dosc::rl::TrajectoryBuffer buffer(0.99);
    dosc::core::TrainingEnv env(net, buffer, {}, degree, dosc::util::Rng(1));
    sim.start(env, &env);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  unpin();

  const Pass pass = run_pass(result, args, seeds);
  double best_s = 0.0;
  std::vector<double> iterations_us;
  for (const double s : pass.best_iterations_s()) {
    best_s += s;
    iterations_us.push_back(s * 1e6);
  }
  const double rows_per_s = pass.rows() / best_s;

  const Run& first = pass.reps.front();
  std::uint64_t update_rows = 0;
  for (const std::uint64_t n : first.update_rows) update_rows += n;
  if (args.seed == kDefaultSeed && seeds == kPinnedSeeds &&
      std::string(dosc::nn::gemm::isa_name()) == "avx2+fma") {
    result.check(first.checksum == kPinnedChecksum, "train: pinned parameter checksum changed",
                 iterations);
  }
  std::fprintf(stderr, "train: seeds %zu iterations %zu checksum %llu\n", seeds, iterations,
               static_cast<unsigned long long>(first.checksum));
  result.counts = {{"seeds", seeds},
                   {"iterations", iterations},
                   {"env_steps", pass.rows()},
                   {"update_rows", update_rows},
                   {"checksum", first.checksum}};

  if (!args.trace) {
    add_end_to_end(result, rows_per_s, percentile(iterations_us, 50.0), median(setup));
    return result;
  }

  // Traced pass: the same training again; the per-layer split comes from the
  // trainer's own train.* histograms, which both passes record.
  const TrainerTimes before = TrainerTimes::read();
  const Pass traced = run_pass(result, args, seeds);
  const TrainerTimes t = TrainerTimes::read() - before;
  double traced_best_s = 0.0;
  for (const double s : traced.best_iterations_s()) traced_best_s += s;
  const double traced_rows_per_s = traced.rows() / traced_best_s;

  const double reps = static_cast<double>(traced.reps.size());
  const double rollout_ms = t.rollout_ms, update_ms = t.update_ms, kfac_ms = t.kfac_ms;
  const double wall_ms = traced.wall_s * 1e3;
  const double residual_ms = wall_ms - traced.build_s * 1e3 - rollout_ms - update_ms;
  result.wall_ms = wall_ms;
  result.layer_ms = {{"net.scenario_build", traced.build_s * 1e3},
                     {"train.rollout", rollout_ms},
                     {"rl.update (minus kfac)", update_ms - kfac_ms},
                     {"nn.kfac", kfac_ms},
                     {"residual (init, merge, eval)", residual_ms}};

  const double iters = reps * iterations;
  LayerReport layers;
  layers.set("net.scenario_build_ms", traced.build_s * 1e3);
  layers.set("train.iteration_ms", traced_best_s * 1e3 / iterations);
  layers.set("train.env_steps", static_cast<double>(pass.rows()) / iterations);
  layers.set("train.update_rows", static_cast<double>(update_rows) / iterations);
  layers.set("train.rollout_ms", rollout_ms / iters);
  layers.set("train.update_ms", update_ms / iters);
  layers.set("train.kfac_ms", kfac_ms / iters);
  layers.set("rl.rows_per_round", t.width_count > 0 ? t.width_sum / t.width_count : 0.0);
  layers.set("residual_share", residual_ms / wall_ms);
  layers.set("trace_overhead", rows_per_s / traced_rows_per_s - 1.0);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
