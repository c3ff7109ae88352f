// Lightweight event tracer: scoped spans and instant events recorded into
// per-thread ring buffers, exported as Chrome trace-event JSON
// (chrome://tracing / Perfetto "Open with legacy UI").
//
// Design constraints, in order:
//  * Disabled cost ~0: every record call first checks one relaxed atomic.
//    Tracing is off unless something (e.g. dosc_cli --trace-out) turns it on.
//  * Hot-loop friendly when enabled: events carry two `const char*` (they
//    MUST be string literals or otherwise outlive the tracer — no
//    allocation per event), a timestamp, and a duration. Each thread owns a
//    fixed-capacity ring; when it wraps, the oldest events are overwritten
//    (the exporter reports how many were lost).
//  * Threads register lazily on first record; their rings outlive them
//    (shared_ptr), so spans from the trainer's seed workers survive the
//    join and show up in the export, one track per worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace dosc::telemetry {

struct TraceEvent {
  const char* name = "";
  const char* category = "";
  char phase = 'X';     ///< 'X' = complete span, 'i' = instant
  double ts_us = 0.0;   ///< start, relative to the tracer epoch
  double dur_us = 0.0;  ///< span duration ('X' only)
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  /// Ring capacity per thread, in events.
  explicit Tracer(std::size_t ring_capacity = 1 << 16);

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  bool is_enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since this tracer's construction (steady clock).
  double now_us() const noexcept;

  /// Record on the calling thread's ring. No-ops when disabled.
  void complete(const char* category, const char* name, double ts_us, double dur_us);
  void instant(const char* category, const char* name);

  /// All recorded events across threads, sorted by start time.
  std::vector<TraceEvent> events() const;
  /// Events overwritten due to ring wrap-around, across threads.
  std::uint64_t dropped_events() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — the trace-event
  /// format chrome://tracing loads directly.
  util::Json to_chrome_json() const;
  void save_chrome_json(const std::string& path) const;

  void clear();

  static Tracer& global();

 private:
  struct Ring {
    explicit Ring(std::size_t capacity, std::uint32_t tid_value)
        : events(capacity), tid(tid_value) {}
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
    std::size_t next = 0;         ///< write cursor
    std::uint64_t recorded = 0;   ///< total events ever written
    std::uint32_t tid = 0;
  };

  Ring& thread_ring();
  void record(const TraceEvent& event);

  std::atomic<bool> enabled_{false};
  const std::uint64_t generation_;  ///< unique per Tracer instance
  std::chrono::steady_clock::time_point epoch_;
  std::size_t ring_capacity_;
  mutable std::mutex rings_mutex_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::uint32_t next_tid_ = 1;
};

/// RAII span on the global tracer: records a complete ('X') event covering
/// its lifetime. Near-free when tracing is disabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name)
      : ScopedSpan(Tracer::global(), category, name) {}
  /// Hot-loop overload: callers that hold the tracer reference skip the
  /// global() lookup in both constructor and destructor.
  ScopedSpan(Tracer& tracer, const char* category, const char* name)
      : tracer_(&tracer), armed_(tracer.is_enabled()), category_(category),
        name_(name) {
    if (armed_) start_us_ = tracer.now_us();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (armed_) {
      tracer_->complete(category_, name_, start_us_, tracer_->now_us() - start_us_);
    }
  }

 private:
  Tracer* tracer_;
  bool armed_;
  const char* category_;
  const char* name_;
  double start_us_ = 0.0;
};

/// Trace macros: one relaxed atomic load when tracing is off.
#define DOSC_TRACE_CONCAT_INNER(a, b) a##b
#define DOSC_TRACE_CONCAT(a, b) DOSC_TRACE_CONCAT_INNER(a, b)
#define DOSC_TRACE_SCOPE(category, name) \
  ::dosc::telemetry::ScopedSpan DOSC_TRACE_CONCAT(dosc_trace_span_, __LINE__)(category, name)
#define DOSC_TRACE_INSTANT(category, name)                 \
  do {                                                     \
    ::dosc::telemetry::Tracer& dosc_trace_tracer =         \
        ::dosc::telemetry::Tracer::global();               \
    if (dosc_trace_tracer.is_enabled()) {                  \
      dosc_trace_tracer.instant(category, name);           \
    }                                                      \
  } while (false)

}  // namespace dosc::telemetry
