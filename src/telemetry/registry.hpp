// Process-wide metrics registry: named counters, gauges, and histograms.
//
// Counters and gauges are lock-free after the first lookup (atomic adds on
// stable heap objects); histograms take a per-histogram mutex on observe,
// so hot paths should record into a local telemetry::Histogram and
// merge() it in at a sync point (what the simulator and the serving workers
// do). The registry itself is a singleton (`global()`), but the class is
// instantiable for tests.
//
// All instrumentation is gated by a process-wide enable flag
// (`set_enabled`), default off: a disabled run costs the instrumented code
// at most one relaxed atomic load per guard.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/histogram.hpp"
#include "util/json.hpp"

namespace dosc::telemetry {

/// Monotonic event count. Thread-safe.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. Thread-safe.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  /// Find-or-create. The returned references stay valid for the registry's
  /// lifetime; cache them outside hot loops.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Single-value histogram observation (per-histogram mutex).
  void observe(std::string_view name, double value,
               const HistogramConfig& config = latency_histogram_config());
  /// Merge a locally recorded histogram into the named one.
  void merge_histogram(std::string_view name, const Histogram& local);
  /// Copy-out of a named histogram; empty default-config histogram if absent.
  Histogram histogram(std::string_view name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: <Histogram
  /// JSON + summary percentiles>}} — see exporters.hpp for the versioned
  /// snapshot-file schema wrapped around this.
  util::Json snapshot() const;

  /// Drop every metric (tests and per-run isolation in benches).
  void clear();

  static MetricsRegistry& global();

 private:
  struct LockedHistogram {
    explicit LockedHistogram(const HistogramConfig& config) : hist(config) {}
    std::mutex mutex;
    Histogram hist;
  };

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LockedHistogram>, std::less<>> histograms_;
};

/// Process-wide master switch for metrics collection on instrumented paths.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

}  // namespace dosc::telemetry
