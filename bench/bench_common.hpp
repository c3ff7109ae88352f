// Shared infrastructure for the per-figure benchmark harnesses.
//
// Every table/figure binary follows the paper's experiment protocol: train
// the DRL agents on the scenario (centralized offline training), deploy,
// then evaluate all four algorithms over multiple random seeds and report
// mean +- stddev of the success ratio (Eq. 1). Every run trains its
// policies from the code it is built from; nothing is cached on disk.
//
// Scale: DOSC_BENCH_SCALE=quick (default) runs reduced-but-faithful sizes;
// DOSC_BENCH_SCALE=full trains at core::TrainingConfig::paper_scale() and
// evaluates on 30 seeds of T = 20000. EXPERIMENTS.md discusses the
// fidelity of both.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "baselines/central_drl.hpp"
#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "core/drl_env.hpp"
#include "core/trainer.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"
#include "util/stats.hpp"

namespace dosc::bench {

struct BenchScale {
  bool full = false;
  /// How both DRL agents train, with the learning rate decayed over the
  /// iterations. Quick: TrainingConfig{} at one seed, seed selection on 2
  /// episodes. Full: TrainingConfig::paper_scale(). distributed_policy
  /// scales the iterations by the topology's degree on top of this.
  core::TrainingConfig training;
  std::size_t eval_seeds = 5;
  double eval_time = 3000.0;

  /// Reads DOSC_BENCH_SCALE ("quick" default, "full" = paper scale).
  static BenchScale from_env();
};

/// mean/stddev of the per-seed success ratios, plus delay diagnostics.
/// Per-decision timing comes from the simulator (SimMetrics) — one code
/// path for all four algorithms. For CentralDRL, decision_hist holds the
/// periodic rule-refresh latency (its Fig. 9b "decision").
struct AlgoStats {
  util::RunningStats success;
  util::RunningStats e2e_delay;  ///< mean delay of completed flows (ms)
  /// Per-decision wall clock (us), merged across all eval episodes — the
  /// source for the reported mean and p50/p90/p99.
  telemetry::Histogram decision_hist{telemetry::latency_histogram_config()};
};

/// Train the distributed DRL policy for a scenario; `key` labels the
/// progress line.
core::TrainedPolicy distributed_policy(const sim::Scenario& scenario, const std::string& key,
                                       const BenchScale& scale);

/// Train the centralized DRL baseline's policy; `key` labels the progress
/// line.
core::TrainedPolicy central_policy(const sim::Scenario& scenario, const std::string& key,
                                   const BenchScale& scale);

enum class Algo { kDistributedDrl, kCentralDrl, kGcasp, kShortestPath };
const char* algo_name(Algo algo);

/// Evaluate one algorithm on the scenario over `scale.eval_seeds` episodes
/// of `scale.eval_time` ms. For the DRL algorithms, pass their policy.
AlgoStats evaluate(const sim::Scenario& scenario, Algo algo, const BenchScale& scale,
                   const core::TrainedPolicy* policy = nullptr,
                   std::uint64_t seed_base = 424242);

/// Aligned table output helpers.
void print_header(const std::string& title, const std::vector<std::string>& columns);
void print_row(const std::string& label, const std::vector<std::string>& cells);
std::string fmt_mean_std(const util::RunningStats& stats, int precision = 3);

/// One (scenario, algorithm) evaluation result destined for BENCH_*.json.
struct BenchRecord {
  std::string scenario;
  std::string algo;
  AlgoStats stats;
  /// Per-decision timing of each repeat of a timed evaluation (Fig. 9b),
  /// one histogram per repeat; empty when the evaluation ran once.
  std::vector<telemetry::Histogram> timing_repeats;
};

/// Median over a cell's timing repeats of each repeat's `percentile`.
double median_percentile(const std::vector<telemetry::Histogram>& repeats, double percentile);

/// "p50/p99" (us), each the median over the repeats; "-" when empty. The
/// p99 is reported only when every repeat holds at least 1000 samples, so
/// that ten lie beyond the 99th percentile; otherwise the cell is "p50/-".
std::string fmt_median_p50_p99(const std::vector<telemetry::Histogram>& repeats,
                               int precision = 1);

inline constexpr const char* kBenchSchema = "dosc.bench.v1";

/// Write the machine-diffable results file BENCH_<benchmark>.json:
/// {"schema":"dosc.bench.v1","benchmark":...,"results":[{scenario, algo,
/// success{mean,stddev,seeds}, e2e_delay_ms{...},
/// decision_us{mean,p50,p90,p99,count}}]}. A record with timing repeats
/// also carries decision_us_repeats (one such object per repeat) and
/// decision_us_median{p50,p99} over them, p99 null when fmt_median_p50_p99
/// would not report it. Returns the path written.
std::string write_bench_json(const std::string& benchmark,
                             const std::vector<BenchRecord>& records);

}  // namespace dosc::bench
