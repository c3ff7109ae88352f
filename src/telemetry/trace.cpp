#include "telemetry/trace.hpp"

#include <algorithm>

namespace dosc::telemetry {

namespace {

/// Unique id per Tracer instance, so the thread-local ring cache never
/// confuses a destroyed tracer with a new one at the same address.
std::atomic<std::uint64_t> g_next_tracer_generation{1};

}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : generation_(g_next_tracer_generation.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      ring_capacity_(ring_capacity > 0 ? ring_capacity : 1) {}

double Tracer::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Ring& Tracer::thread_ring() {
  struct CacheEntry {
    const Tracer* tracer;
    std::uint64_t generation;
    std::shared_ptr<Ring> ring;
  };
  thread_local std::vector<CacheEntry> cache;
  // The generation check guards against a new tracer reusing the address of
  // a destroyed one and silently inheriting its ring.
  for (CacheEntry& entry : cache) {
    if (entry.tracer == this && entry.generation == generation_) return *entry.ring;
  }
  std::lock_guard<std::mutex> lock(rings_mutex_);
  auto ring = std::make_shared<Ring>(ring_capacity_, next_tid_++);
  rings_.push_back(ring);
  cache.push_back({this, generation_, ring});
  return *ring;
}

void Tracer::record(const TraceEvent& event) {
  Ring& ring = thread_ring();
  std::lock_guard<std::mutex> lock(ring.mutex);
  TraceEvent stamped = event;
  stamped.tid = ring.tid;
  ring.events[ring.next] = stamped;
  ring.next = (ring.next + 1) % ring.events.size();
  ++ring.recorded;
}

void Tracer::complete(const char* category, const char* name, double ts_us, double dur_us) {
  if (!is_enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  record(event);
}

void Tracer::instant(const char* category, const char* name) {
  if (!is_enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = 'i';
  event.ts_us = now_us();
  record(event);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const std::shared_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    const std::size_t capacity = ring->events.size();
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(ring->recorded, capacity));
    // Oldest-first: when wrapped, the write cursor points at the oldest.
    const std::size_t start = (ring->recorded > capacity) ? ring->next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring->events[(start + i) % capacity]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  return out;
}

std::uint64_t Tracer::dropped_events() const {
  std::uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const std::shared_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    const std::uint64_t capacity = ring->events.size();
    if (ring->recorded > capacity) dropped += ring->recorded - capacity;
  }
  return dropped;
}

util::Json Tracer::to_chrome_json() const {
  util::Json::Array trace_events;
  for (const TraceEvent& event : events()) {
    util::Json::Object entry;
    entry["name"] = event.name;
    entry["cat"] = event.category;
    entry["ph"] = std::string(1, event.phase);
    entry["ts"] = event.ts_us;
    if (event.phase == 'X') entry["dur"] = event.dur_us;
    if (event.phase == 'i') entry["s"] = "t";  // thread-scoped instant
    entry["pid"] = 1;
    entry["tid"] = static_cast<double>(event.tid);
    trace_events.push_back(util::Json(std::move(entry)));
  }
  util::Json::Object out;
  out["traceEvents"] = util::Json(std::move(trace_events));
  out["displayTimeUnit"] = "ms";
  const std::uint64_t dropped = dropped_events();
  if (dropped > 0) {
    util::Json::Object metadata;
    metadata["dosc_dropped_events"] = static_cast<double>(dropped);
    out["metadata"] = util::Json(std::move(metadata));
  }
  return util::Json(std::move(out));
}

void Tracer::save_chrome_json(const std::string& path) const {
  to_chrome_json().save_file(path, /*indent=*/-1);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const std::shared_ptr<Ring>& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->next = 0;
    ring->recorded = 0;
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

}  // namespace dosc::telemetry
