// dosc benchmark driver: runs one workload and prints its result.
//
//   dosc_perfbench --workload sim|infer|train|serve --seed N --seconds S --trace 0|1
//
// Stdout ends with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Lines before it record provenance, exact work counts and
// (traced runs) the per-layer self-time table.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "nn/gemm.hpp"
#include "nn/parallel.hpp"
#include "nn/vecmath.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: dosc_perfbench --workload sim|infer|train|serve "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
        used = value.size();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value, &used);
      } else if (flag == "--trace") {
        const int t = std::stoi(value, &used);
        if (t != 0 && t != 1) usage("--trace must be 0 or 1");
        args.trace = t == 1;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
      if (used != value.size()) usage(("malformed value for " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.seconds < 1 || args.seconds > 120) usage("--seconds must be in [1, 120]");
  return args;
}

void print_json_line(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result (*run)(const Args&) = nullptr;
  if (args.workload == "sim") run = run_sim;
  if (args.workload == "infer") run = run_infer;
  if (args.workload == "train") run = run_train;
  if (args.workload == "serve") run = run_serve;
  if (run == nullptr) usage(("unknown workload " + args.workload).c_str());

  // sim/infer/train compute on one thread; serve's worker decides inline.
  dosc::nn::set_compute_threads(1);
  const std::uint64_t steal_before = steal_jiffies();
  Result result;
  try {
    result = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const std::uint64_t steal_after = steal_jiffies();

  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
              "\"trace\": %d, \"nproc\": %u, \"allowed_cpus\": %zu, \"gemm_isa\": \"%s\", "
              "\"tanh_isa\": \"%s\", \"compute_threads\": %zu, \"steal_jiffies\": %llu}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(), allowed_cpus().size(),
              dosc::nn::gemm::isa_name(), dosc::nn::vecmath::tanh_isa(),
              dosc::nn::compute_threads(),
              static_cast<unsigned long long>(steal_after - steal_before));
  std::printf("counts {");
  for (std::size_t i = 0; i < result.counts.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", result.counts[i].first.c_str(),
                static_cast<unsigned long long>(result.counts[i].second));
  }
  std::printf("}\n");
  if (args.trace) {
    double sum = 0.0;
    std::printf("layer self times (ms), traced pass wall %.3f ms:\n", result.wall_ms);
    for (const auto& [name, ms] : result.layer_ms) {
      std::printf("  %-28s %12.3f  %6.2f%%\n", name.c_str(), ms,
                  result.wall_ms > 0 ? 100.0 * ms / result.wall_ms : 0.0);
      sum += ms;
    }
    std::printf("  %-28s %12.3f\n", "sum (layers + residual)", sum);
  }
  print_json_line(result);
  return 0;
}
