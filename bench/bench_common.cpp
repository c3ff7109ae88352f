#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/json.hpp"
#include "util/string_util.hpp"

namespace dosc::bench {

BenchScale BenchScale::from_env() {
  BenchScale scale;
  const char* env = std::getenv("DOSC_BENCH_SCALE");
  if (env != nullptr && std::string(env) == "full") {
    scale.full = true;
    scale.training = core::TrainingConfig::paper_scale();
    scale.eval_seeds = 30;       // paper: 30 random seeds
    scale.eval_time = 20000.0;   // paper: T = 20000 time steps
  } else {
    scale.training.num_seeds = 1;
    scale.training.eval_episodes = 2;
  }
  scale.training.updater.lr_decay_updates = scale.training.iterations;
  return scale;
}

core::TrainedPolicy distributed_policy(const sim::Scenario& scenario, const std::string& key,
                                       const BenchScale& scale) {
  // Larger observation/action spaces (high-degree topologies) need more
  // updates to reach comparable policy quality; scale the budget with the
  // network degree relative to Abilene's (3).
  const double degree_factor =
      std::max(1.0, static_cast<double>(scenario.network().max_degree()) / 3.0);
  core::TrainingConfig config = scale.training;
  config.iterations = static_cast<std::size_t>(static_cast<double>(config.iterations) *
                                               std::min(4.0, degree_factor));
  config.updater.lr_decay_updates = config.iterations;
  std::printf("  [policy %s: training %zu seeds x %zu iterations...]\n", key.c_str(),
              config.num_seeds, config.iterations);
  std::fflush(stdout);
  return core::train_distributed_policy(scenario, config);
}

core::TrainedPolicy central_policy(const sim::Scenario& scenario, const std::string& key,
                                   const BenchScale& scale) {
  std::printf("  [central policy %s: training %zu seeds x %zu iterations...]\n", key.c_str(),
              scale.training.num_seeds, scale.training.iterations);
  std::fflush(stdout);
  return baselines::train_central_policy(scenario, scale.training);
}

const char* algo_name(Algo algo) {
  switch (algo) {
    case Algo::kDistributedDrl: return "DistDRL";
    case Algo::kCentralDrl: return "CentralDRL";
    case Algo::kGcasp: return "GCASP";
    case Algo::kShortestPath: return "SP";
  }
  return "?";
}

AlgoStats evaluate(const sim::Scenario& scenario, Algo algo, const BenchScale& scale,
                   const core::TrainedPolicy* policy, std::uint64_t seed_base) {
  AlgoStats stats;
  const sim::Scenario eval_scenario = scenario.with_end_time(scale.eval_time);

  std::optional<rl::ActorCritic> net;
  if (policy != nullptr) net.emplace(policy->instantiate());

  for (std::size_t e = 0; e < scale.eval_seeds; ++e) {
    const std::uint64_t seed = seed_base + e;
    sim::Simulator sim(eval_scenario, seed);
    sim.enable_decision_timing(true);
    sim::SimMetrics metrics;
    switch (algo) {
      case Algo::kDistributedDrl: {
        core::DistributedDrlCoordinator c(*net, scenario.network().max_degree());
        metrics = sim.run(c);
        break;
      }
      case Algo::kCentralDrl: {
        baselines::CentralDrlCoordinator c(*net, core::RewardConfig{});
        metrics = sim.run(c, &c);
        break;
      }
      case Algo::kGcasp: {
        baselines::GcaspCoordinator c;
        metrics = sim.run(c);
        break;
      }
      case Algo::kShortestPath: {
        baselines::ShortestPathCoordinator c;
        metrics = sim.run(c);
        break;
      }
    }
    // The central baseline's Fig. 9b "decision" is its periodic rule
    // refresh, not the per-flow rule lookup.
    stats.decision_hist.merge(algo == Algo::kCentralDrl ? metrics.rule_update_time
                                                        : metrics.decision_time);
    stats.success.add(metrics.success_ratio());
    if (metrics.e2e_delay.count() > 0) stats.e2e_delay.add(metrics.e2e_delay.mean());
  }
  return stats;
}

namespace {
constexpr std::size_t kLabelWidth = 22;
constexpr std::size_t kCellWidth = 16;
}  // namespace

void print_header(const std::string& title, const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::string line = util::pad_right("", kLabelWidth);
  for (const std::string& c : columns) line += util::pad_left(c, kCellWidth);
  std::printf("%s\n", line.c_str());
  std::printf("%s\n", std::string(kLabelWidth + kCellWidth * columns.size(), '-').c_str());
}

void print_row(const std::string& label, const std::vector<std::string>& cells) {
  std::string line = util::pad_right(label, kLabelWidth);
  for (const std::string& c : cells) line += util::pad_left(c, kCellWidth);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string fmt_mean_std(const util::RunningStats& stats, int precision) {
  return util::format_double(stats.mean(), precision) + "+-" +
         util::format_double(stats.stddev(), precision);
}

double median_percentile(const std::vector<telemetry::Histogram>& repeats, double percentile) {
  std::vector<double> values;
  for (const telemetry::Histogram& h : repeats) {
    if (h.count() > 0) values.push_back(h.percentile(percentile));
  }
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

/// A p99 needs ten samples beyond it: every repeat must hold >= 1000.
bool p99_resolved(const std::vector<telemetry::Histogram>& repeats) {
  return std::all_of(repeats.begin(), repeats.end(),
                     [](const telemetry::Histogram& h) { return h.count() >= 1000; });
}

}  // namespace

std::string fmt_median_p50_p99(const std::vector<telemetry::Histogram>& repeats,
                               int precision) {
  const auto timed = [](const telemetry::Histogram& h) { return h.count() > 0; };
  if (std::none_of(repeats.begin(), repeats.end(), timed)) return "-";
  const std::string p99 = p99_resolved(repeats)
                              ? util::format_double(median_percentile(repeats, 99.0), precision)
                              : "-";
  return util::format_double(median_percentile(repeats, 50.0), precision) + "/" + p99;
}

namespace {

util::Json::Object decision_json(const telemetry::Histogram& hist) {
  return util::Json::Object{
      {"mean", util::Json(hist.mean())},
      {"p50", util::Json(hist.percentile(50.0))},
      {"p90", util::Json(hist.percentile(90.0))},
      {"p99", util::Json(hist.percentile(99.0))},
      {"count", util::Json(hist.count())},
  };
}

}  // namespace

std::string write_bench_json(const std::string& benchmark,
                             const std::vector<BenchRecord>& records) {
  util::Json::Array results;
  results.reserve(records.size());
  for (const BenchRecord& r : records) {
    util::Json::Object success{
        {"mean", util::Json(r.stats.success.mean())},
        {"stddev", util::Json(r.stats.success.stddev())},
        {"seeds", util::Json(r.stats.success.count())},
    };
    util::Json::Object delay{
        {"mean", util::Json(r.stats.e2e_delay.mean())},
        {"stddev", util::Json(r.stats.e2e_delay.stddev())},
    };
    util::Json::Object result{
        {"scenario", util::Json(r.scenario)},
        {"algo", util::Json(r.algo)},
        {"success", util::Json(std::move(success))},
        {"e2e_delay_ms", util::Json(std::move(delay))},
        {"decision_us", util::Json(decision_json(r.stats.decision_hist))},
    };
    if (!r.timing_repeats.empty()) {
      util::Json::Array repeats;
      for (const telemetry::Histogram& h : r.timing_repeats) {
        repeats.push_back(util::Json(decision_json(h)));
      }
      result.emplace("decision_us_repeats", util::Json(std::move(repeats)));
      result.emplace("decision_us_median",
                     util::Json(util::Json::Object{
                         {"p50", util::Json(median_percentile(r.timing_repeats, 50.0))},
                         {"p99", p99_resolved(r.timing_repeats)
                                     ? util::Json(median_percentile(r.timing_repeats, 99.0))
                                     : util::Json()},
                     }));
    }
    results.push_back(util::Json(std::move(result)));
  }
  const util::Json doc(util::Json::Object{
      {"schema", util::Json(kBenchSchema)},
      {"benchmark", util::Json(benchmark)},
      {"results", util::Json(std::move(results))},
  });
  const std::string path = "BENCH_" + benchmark + ".json";
  doc.save_file(path, 2);
  std::printf("  [results: %s]\n", path.c_str());
  return path;
}

}  // namespace dosc::bench
