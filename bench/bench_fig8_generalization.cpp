// Fig. 8: generalization to unseen scenarios WITHOUT retraining.
//  (a) Agents trained on fixed / Poisson / MMPP arrivals, evaluated on
//      trace-driven traffic ("Gen."), against an agent trained on the
//      traces themselves ("Retr.") and the other algorithms.
//  (b) An agent trained at 2 ingress nodes evaluated at 1-5 ingress
//      nodes, against per-load retrained agents and the other algorithms.
//
// Expected shape (paper): the generalizing agents land close to the
// retrained ones and still clearly beat CentralDRL/GCASP/SP.
#include <cstdio>

#include "bench_common.hpp"

using namespace dosc;

int main() {
  const bench::BenchScale scale = bench::BenchScale::from_env();
  std::printf("Fig. 8 — generalization to unseen scenarios (%s scale, %zu eval seeds)\n",
              scale.full ? "full" : "quick", scale.eval_seeds);

  // ---------- Part A: unseen traffic pattern (traces) ----------
  const sim::Scenario trace_scenario =
      sim::make_base_scenario(2, traffic::TrafficSpec::diurnal_trace());

  bench::print_header("Fig. 8a: tested on traces (2 ingress)", {"success"});
  const struct {
    const char* label;
    traffic::TrafficSpec spec;
  } sources[] = {
      {"Gen. (fixed)", traffic::TrafficSpec::fixed(10.0)},
      {"Gen. (poisson)", traffic::TrafficSpec::poisson(10.0)},
      {"Gen. (mmpp)", traffic::TrafficSpec::mmpp()},
  };
  core::TrainedPolicy poisson_policy;  // also Fig. 8b's generalizing agent
  for (const auto& src : sources) {
    const sim::Scenario train_scenario = sim::make_base_scenario(2, src.spec);
    const std::string key = std::string("fig8a_") +
                            traffic::arrival_kind_name(src.spec.kind) + "_in2";
    const core::TrainedPolicy policy = bench::distributed_policy(train_scenario, key, scale);
    if (src.spec.kind == traffic::ArrivalKind::kPoisson) poisson_policy = policy;
    const bench::AlgoStats stats =
        bench::evaluate(trace_scenario, bench::Algo::kDistributedDrl, scale, &policy);
    bench::print_row(src.label, {bench::fmt_mean_std(stats.success)});
  }
  {
    const core::TrainedPolicy retrained =
        bench::distributed_policy(trace_scenario, "fig8a_trace_in2", scale);
    bench::print_row("Retr. (traces)",
                     {bench::fmt_mean_std(bench::evaluate(trace_scenario,
                                                          bench::Algo::kDistributedDrl, scale,
                                                          &retrained)
                                              .success)});
    const core::TrainedPolicy central = bench::central_policy(trace_scenario,
                                                              "fig8a_trace_in2", scale);
    bench::print_row("CentralDRL",
                     {bench::fmt_mean_std(
                         bench::evaluate(trace_scenario, bench::Algo::kCentralDrl, scale,
                                         &central)
                             .success)});
    bench::print_row("GCASP", {bench::fmt_mean_std(
                                  bench::evaluate(trace_scenario, bench::Algo::kGcasp, scale)
                                      .success)});
    bench::print_row("SP", {bench::fmt_mean_std(
                               bench::evaluate(trace_scenario, bench::Algo::kShortestPath,
                                               scale)
                                   .success)});
  }

  // ---------- Part B: unseen load levels ----------
  bench::print_header("Fig. 8b: trained at 2 ingress, tested at 1-5 (Poisson)",
                      {"1", "2", "3", "4", "5"});
  const traffic::TrafficSpec poisson = traffic::TrafficSpec::poisson(10.0);
  const core::TrainedPolicy& gen_policy = poisson_policy;

  std::vector<std::string> gen_row;
  std::vector<std::string> retr_row;
  std::vector<std::string> gcasp_row;
  std::vector<std::string> sp_row;
  for (std::size_t ingress = 1; ingress <= 5; ++ingress) {
    const sim::Scenario scenario = sim::make_base_scenario(ingress, poisson);
    gen_row.push_back(bench::fmt_mean_std(
        bench::evaluate(scenario, bench::Algo::kDistributedDrl, scale, &gen_policy).success));
    // The same training budget as the generalizing policy: an unequal
    // budget would bias the comparison the paper makes.
    const core::TrainedPolicy retrained = bench::distributed_policy(
        scenario, "fig8b_poisson_in" + std::to_string(ingress), scale);
    retr_row.push_back(bench::fmt_mean_std(
        bench::evaluate(scenario, bench::Algo::kDistributedDrl, scale, &retrained).success));
    gcasp_row.push_back(
        bench::fmt_mean_std(bench::evaluate(scenario, bench::Algo::kGcasp, scale).success));
    sp_row.push_back(bench::fmt_mean_std(
        bench::evaluate(scenario, bench::Algo::kShortestPath, scale).success));
  }
  bench::print_row("DistDRL Gen. (@2)", gen_row);
  bench::print_row("DistDRL Retr.", retr_row);
  bench::print_row("GCASP", gcasp_row);
  bench::print_row("SP", sp_row);
  return 0;
}
