#include "harness.hpp"

#include <sched.h>
#include <time.h>
#include <x86intrin.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double cpu_seconds() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t ticks() noexcept { return __rdtsc(); }

double ns_per_tick() {
  static const double value = [] {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t c0 = ticks();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t c1 = ticks();
    return seconds_between(t0, t1) * 1e9 / static_cast<double>(c1 - c0);
  }();
  return value;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    return out;
  }();
  return cpus;
}

int cpu_for_rep(std::size_t rep) { return allowed_cpus()[rep % allowed_cpus().size()]; }

namespace {
void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}
}  // namespace

void pin_to(int cpu) { set_affinity({cpu}); }

void pin_to_all_except(int cpu) {
  std::vector<int> rest;
  for (const int c : allowed_cpus()) {
    if (c != cpu) rest.push_back(c);
  }
  set_affinity(rest.empty() ? allowed_cpus() : rest);
}

void unpin() { set_affinity(allowed_cpus()); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks (numpy's default).
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t user, nice, system, idle, iowait, irq, softirq, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return steal;
}

void Result::check(bool ok, const std::string& what, std::uint64_t ops) {
  if (ok) return;
  correct = false;
  failed += ops;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void add_end_to_end(Result& result, double throughput_per_s, double p50_us, double setup_s) {
  result.add("throughput_per_s", throughput_per_s, "1/s");
  result.add("latency_p50_us", p50_us, "us");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {
// Name and unit of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"sim.engine_ns_per_event", "ns"},
    {"sim.events_per_flow", "count"},
    {"sim.skipped_share", "ratio"},
    {"sim.event_queue_peak", "count"},
    {"baselines.decide_ns", "ns"},
    {"net.scenario_build_ms", "ms"},
    {"nn.forward_row_ns", "ns"},
    {"nn.forward_ns_per_row", "ns"},
    {"rl.rows_per_round", "count"},
    {"rl.gemv_row_share", "ratio"},
    {"core.observation_ns", "ns"},
    {"rl.select_ns", "ns"},
    {"sim.ns_per_decision", "ns"},
    {"infer.decision_p90_us", "us"},
    {"infer.decision_p99_us", "us"},
    {"train.iteration_ms", "ms"},
    {"train.env_steps", "count"},
    {"train.update_rows", "count"},
    {"train.rollout_ms", "ms"},
    {"train.update_ms", "ms"},
    {"train.kfac_ms", "ms"},
    {"serve.gen_lateness_p50_us", "us"},
    {"serve.gen_lateness_p99_us", "us"},
    {"serve.batch_rows_p50", "count"},
    {"serve.batch_rows_p90", "count"},
    {"serve.gemm_batch_share", "ratio"},
    {"serve.batch_decide_p50_us", "us"},
    {"serve.request_decide_p50_us", "us"},
    {"serve.kernel_residual_p50_us", "us"},
    {"serve.e2e_p90_us", "us"},
    {"serve.e2e_p99_us", "us"},
    {"residual_share", "ratio"},
    {"trace_overhead", "ratio"},
};
}  // namespace

LayerReport::LayerReport() {
  for (const auto& [name, unit] : kLayerMetrics) metrics_.push_back({name, 0.0, unit});
}

void LayerReport::set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerReport::emit(Result& result) const {
  for (const Metric& m : metrics_) result.metrics.push_back(m);
}

}  // namespace perfbench
