// Shared measurement harness for the dosc benchmark workloads.
//
// Timing protocol (see README.md, "Steadiness"): on a shared multi-vCPU
// host, contention from other tenants slows single vCPUs, and at times all
// of them, by 10-40% for seconds at a time. Each workload therefore splits
// its work into fixed chunks and repeats every chunk kReps times, spread
// over the run and rotated over the CPUs of the process's allowed set, and
// keeps each chunk's fastest time. Work is a pure function of (seed,
// seconds), so every count repeats exactly between runs and every
// repetition must produce identical outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the process has used, in seconds. The compute workloads time
/// their chunks with it: the guest kernel leaves out steal time, the time
/// the hypervisor ran something else on the vCPU, which wall time counts.
/// With one compute thread and no blocking it equals wall time on a host of
/// one's own.
double cpu_seconds() noexcept;

/// Cycle counter for per-call layer timing: a steady_clock read costs
/// ~20 ns, as much as the observation build it would time.
std::uint64_t ticks() noexcept;
/// Nanoseconds per tick, calibrated once against steady_clock.
double ns_per_tick();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// The seed at which pinned output values are checked; any other seed gets
/// consistency checks only.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Deterministic 64-bit stream derived from (seed, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept;

/// Timed repetitions of every chunk of work.
inline constexpr std::size_t kReps = 8;

/// CPUs of the process's allowed set at startup, and thread pinning.
const std::vector<int>& allowed_cpus();
/// The CPU repetition `rep` runs on: repetitions rotate over allowed_cpus().
int cpu_for_rep(std::size_t rep);
void pin_to(int cpu);
void pin_to_all_except(int cpu);
void unpin();

double percentile(std::vector<double> values, double p);  // exact, p in [0,100]
double median(std::vector<double> values);
double peak_rss_mb();
std::uint64_t steal_jiffies();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One run's outcome: the final stdout line is built from this.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable per-layer self-time table (trace runs).
  std::vector<std::pair<std::string, double>> layer_ms;
  double wall_ms = 0.0;
  /// Exact work counts; must repeat between runs at the same seed.
  std::vector<std::pair<std::string, std::uint64_t>> counts;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed output check: the run is marked incorrect and the
  /// `ops` operations it covers count as failed.
  void check(bool ok, const std::string& what, std::uint64_t ops = 1);
};

/// The end-to-end metrics every workload reports (names in BENCHMARK.json).
void add_end_to_end(Result& result, double throughput_per_s, double p50_us, double setup_s);

/// Per-layer metrics: every name in BENCHMARK.json's per_layer list, in one
/// table. A workload sets the ones its layers exercise; the rest read 0,
/// meaning the layer does no work on that workload.
class LayerReport {
 public:
  LayerReport();
  void set(const std::string& name, double value);
  /// Appends every per-layer metric to `result` in list order.
  void emit(Result& result) const;

 private:
  std::vector<Metric> metrics_;
};

Result run_sim(const Args& args);
Result run_infer(const Args& args);
Result run_train(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
