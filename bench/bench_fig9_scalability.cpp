// Fig. 9: scalability on large real-world topologies (Abilene, BT Europe,
// China Telecom, Interroute) with Poisson traffic at 2 ingress nodes.
//  (a) success ratio per topology and algorithm;
//  (b) per-decision inference time (us, log-scale in the paper):
//      distributed DRL stays ~constant (it depends on the degree only),
//      while the centralized DRL's rule-update inference grows with the
//      network size (its observation is O(|V|)).
//
// Each cell's timed evaluation runs kTimingRepeats times on the same seeds,
// the four algorithms' repeats interleaved, and the 9b table prints the
// median over repeats of each repeat's p50 and p99: one run's p99 moved
// 2-3x between runs of byte-identical policies. Every repeat is kept in
// BENCH_fig9_scalability.json.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "util/string_util.hpp"
#include "net/topology_zoo.hpp"

using namespace dosc;

namespace {
constexpr std::size_t kTimingRepeats = 5;
}  // namespace

int main() {
  const bench::BenchScale scale = bench::BenchScale::from_env();
  std::printf("Fig. 9 — scalability on large topologies (%s scale, %zu eval seeds)\n",
              scale.full ? "full" : "quick", scale.eval_seeds);

  const std::vector<std::string> topologies = net::topology_names();
  std::vector<std::string> columns;
  for (const std::string& t : topologies) columns.push_back(t);

  std::vector<std::vector<std::string>> success(4);
  std::vector<std::vector<std::string>> timing(4);
  std::vector<bench::BenchRecord> records;

  const bench::Algo algos[] = {bench::Algo::kDistributedDrl, bench::Algo::kCentralDrl,
                               bench::Algo::kGcasp, bench::Algo::kShortestPath};

  for (const std::string& topology : topologies) {
    const sim::Scenario scenario =
        sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, topology);
    const std::string key = "fig9_" + topology + "_in2";
    const core::TrainedPolicy dist = bench::distributed_policy(scenario, key, scale);
    const core::TrainedPolicy central = bench::central_policy(scenario, key, scale);

    const core::TrainedPolicy* policies[] = {&dist, &central, nullptr, nullptr};

    // Success and delay come from the first repeat (every repeat replays
    // the same episodes); "decision_us" merges all repeats' timings.
    bench::BenchRecord cells[4];
    for (std::size_t r = 0; r < kTimingRepeats; ++r) {
      for (std::size_t i = 0; i < 4; ++i) {
        const bench::AlgoStats run = bench::evaluate(scenario, algos[i], scale, policies[i]);
        cells[i].timing_repeats.push_back(run.decision_hist);
        if (r == 0) {
          cells[i].stats = run;
        } else {
          cells[i].stats.decision_hist.merge(run.decision_hist);
          if (run.success.mean() != cells[i].stats.success.mean()) {
            std::fprintf(stderr, "fig9: %s on %s replayed to another success ratio\n",
                         bench::algo_name(algos[i]), topology.c_str());
            return 1;
          }
        }
      }
    }
    for (std::size_t i = 0; i < 4; ++i) {
      cells[i].scenario = topology;
      cells[i].algo = bench::algo_name(algos[i]);
      success[i].push_back(bench::fmt_mean_std(cells[i].stats.success));
      timing[i].push_back(bench::fmt_median_p50_p99(cells[i].timing_repeats));
      records.push_back(std::move(cells[i]));
    }
  }

  const char* names[] = {"DistDRL (ours)", "CentralDRL", "GCASP", "SP"};
  bench::print_header("Fig. 9a: success ratio per topology", columns);
  for (std::size_t i = 0; i < 4; ++i) bench::print_row(names[i], success[i]);

  bench::print_header("Fig. 9b: per-decision inference time p50/p99 (us), median of " +
                          std::to_string(kTimingRepeats) + " repeats",
                      columns);
  for (std::size_t i = 0; i < 4; ++i) bench::print_row(names[i], timing[i]);
  std::printf("\nNote: CentralDRL's time is per centralized rule update (its observation\n"
              "is O(|V|)); DistDRL's is per local decision and is invariant to |V|.\n"
              "Percentiles come from the simulator's log-scale latency histograms.\n");
  bench::write_bench_json("fig9_scalability", records);
  return 0;
}
