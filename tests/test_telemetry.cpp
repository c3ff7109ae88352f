#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dosc::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(Histogram, BucketBoundaries) {
  const HistogramConfig config;  // min 0.01, max 1e7, 16 per decade
  Histogram h(config);
  // Underflow bucket: values below min_value, NaN, and negatives.
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(0.009), 0u);
  EXPECT_EQ(h.bucket_index(-1.0), 0u);
  EXPECT_EQ(h.bucket_index(std::nan("")), 0u);
  // min_value lands in the first real bucket.
  EXPECT_EQ(h.bucket_index(config.min_value), 1u);
  // Values at/above max_value land in the overflow (last) bucket.
  EXPECT_EQ(h.bucket_index(config.max_value), h.num_buckets() - 1);
  EXPECT_EQ(h.bucket_index(1e300), h.num_buckets() - 1);
  // Bucket edges are geometric: upper/lower == 10^(1/buckets_per_decade).
  const double width = std::pow(10.0, 1.0 / static_cast<double>(config.buckets_per_decade));
  for (std::size_t i = 1; i + 1 < h.num_buckets(); ++i) {
    EXPECT_NEAR(h.bucket_upper(i) / h.bucket_lower(i), width, 1e-9);
    // Every bucket's lower edge maps back to that bucket.
    EXPECT_EQ(h.bucket_index(h.bucket_lower(i) * 1.0000001), i);
  }
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 0.0);
  EXPECT_TRUE(std::isinf(h.bucket_upper(h.num_buckets() - 1)));
}

TEST(Histogram, CountSumMinMax) {
  Histogram h;
  h.add(1.0);
  h.add(10.0);
  h.add(100.0, 2);  // weighted
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 211.0);
  EXPECT_DOUBLE_EQ(h.mean(), 211.0 / 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, PercentilesTrackExactWithinBucketWidth) {
  // Relative error of any percentile is bounded by the geometric bucket
  // width (10^(1/16) ~ 1.155 at the defaults).
  const HistogramConfig config;
  const double width = std::pow(10.0, 1.0 / static_cast<double>(config.buckets_per_decade));
  Histogram h(config);
  std::vector<double> xs;
  util::Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [0.1, 1e4] — several decades, like real latencies.
    const double x = std::pow(10.0, rng.uniform(-1.0, 4.0));
    xs.push_back(x);
    h.add(x);
  }
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double exact = util::percentile(xs, p);
    const double approx = h.percentile(p);
    EXPECT_LE(approx / exact, width * 1.01) << "p" << p;
    EXPECT_GE(approx / exact, 1.0 / (width * 1.01)) << "p" << p;
  }
  // Extremes clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100.0), h.max());
}

TEST(Histogram, SingleValuePercentilesAreExact) {
  Histogram h;
  h.add(42.0, 1000);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 42.0);
  }
}

TEST(Histogram, MergeIsAssociativeAndMatchesSequential) {
  util::Rng rng(23);
  Histogram all;
  Histogram a;
  Histogram b;
  Histogram c;
  for (int i = 0; i < 3000; ++i) {
    const double x = std::pow(10.0, rng.uniform(-1.0, 3.0));
    all.add(x);
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(x);
  }
  // (a + b) + c
  Histogram left(a);
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  Histogram right(b);
  right.merge(c);
  Histogram right_total(a);
  right_total.merge(right);
  // Bucket contents, count, and extremes are exactly associative; the
  // floating-point sum is associative only up to rounding.
  ASSERT_EQ(left.num_buckets(), all.num_buckets());
  for (std::size_t i = 0; i < all.num_buckets(); ++i) {
    EXPECT_EQ(left.bucket_count(i), all.bucket_count(i)) << "bucket " << i;
    EXPECT_EQ(left.bucket_count(i), right_total.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(right_total.count(), all.count());
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
  EXPECT_NEAR(left.sum(), all.sum(), std::abs(all.sum()) * 1e-12);
  EXPECT_NEAR(right_total.sum(), all.sum(), std::abs(all.sum()) * 1e-12);
  for (const double p : {50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(left.percentile(p), all.percentile(p));
    EXPECT_DOUBLE_EQ(right_total.percentile(p), all.percentile(p));
  }
}

TEST(Histogram, MergeRejectsConfigMismatch) {
  HistogramConfig other;
  other.buckets_per_decade = 8;
  Histogram a;
  Histogram b(other);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, CrossThreadMergeMatchesSingleThread) {
  // The trainer-worker pattern: each thread records locally, then merges
  // into a shared registry histogram. The result must equal a sequential
  // recording of the union.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  MetricsRegistry registry;
  Histogram expected;
  for (int t = 0; t < kThreads; ++t) {
    util::Rng rng(100 + t);
    for (int i = 0; i < kPerThread; ++i) expected.add(std::pow(10.0, rng.uniform(0.0, 3.0)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      util::Rng rng(100 + t);
      Histogram local;
      for (int i = 0; i < kPerThread; ++i) local.add(std::pow(10.0, rng.uniform(0.0, 3.0)));
      registry.merge_histogram("xthread_us", local);
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram merged = registry.histogram("xthread_us");
  ASSERT_EQ(merged.count(), expected.count());
  for (std::size_t i = 0; i < expected.num_buckets(); ++i) {
    EXPECT_EQ(merged.bucket_count(i), expected.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(merged.min(), expected.min());
  EXPECT_DOUBLE_EQ(merged.max(), expected.max());
  // Threads merge in nondeterministic order; the sum matches up to rounding.
  EXPECT_NEAR(merged.sum(), expected.sum(), expected.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(merged.percentile(99.0), expected.percentile(99.0));
}

TEST(Histogram, JsonRoundTrip) {
  Histogram h;
  util::Rng rng(31);
  for (int i = 0; i < 1000; ++i) h.add(std::pow(10.0, rng.uniform(-3.0, 8.0)));
  h.add(0.0);    // underflow
  h.add(1e300);  // overflow
  // Through the serializer and parser, not just the value type: every field
  // of the snapshot schema reads back exactly (%.17g round-trips doubles).
  const util::Json json = util::Json::parse(h.to_json().dump());
  const util::Json& config = json.at("config");
  EXPECT_EQ(config.at("min_value").as_number(), h.config().min_value);
  EXPECT_EQ(config.at("max_value").as_number(), h.config().max_value);
  EXPECT_EQ(config.at("buckets_per_decade").as_number(),
            static_cast<double>(h.config().buckets_per_decade));
  EXPECT_EQ(json.at("count").as_number(), static_cast<double>(h.count()));
  EXPECT_EQ(json.at("sum").as_number(), h.sum());
  EXPECT_EQ(json.at("min").as_number(), h.min());
  EXPECT_EQ(json.at("max").as_number(), h.max());

  // Sparse buckets: each non-empty bucket once, in index order, with its
  // count — the underflow and overflow buckets included.
  const util::Json::Array& buckets = json.at("buckets").as_array();
  std::size_t k = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    if (h.bucket_count(i) == 0) continue;
    ASSERT_LT(k, buckets.size());
    EXPECT_EQ(buckets[k].at(0).as_number(), static_cast<double>(i));
    EXPECT_EQ(buckets[k].at(1).as_number(), static_cast<double>(h.bucket_count(i)));
    ++k;
  }
  EXPECT_EQ(k, buckets.size());
  EXPECT_EQ(buckets.front().at(0).as_number(), 0.0);
  EXPECT_EQ(buckets.back().at(0).as_number(), static_cast<double>(h.num_buckets() - 1));
}

TEST(Registry, CountersAndGauges) {
  MetricsRegistry registry;
  registry.counter("a").add(3);
  registry.counter("a").add(2);
  registry.gauge("g").set(1.5);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 1.5);
  registry.clear();
  EXPECT_EQ(registry.counter("a").value(), 0u);
}

TEST(Registry, ConcurrentCountersAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& c = registry.counter("hits");
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("hits").value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Registry, SnapshotSchema) {
  MetricsRegistry registry;
  registry.counter("flows").add(7);
  registry.gauge("ratio").set(0.5);
  registry.observe("lat_us", 100.0);
  registry.observe("lat_us", 200.0);
  const util::Json snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.at("counters").at("flows").as_int(), 7);
  EXPECT_DOUBLE_EQ(snapshot.at("gauges").at("ratio").as_number(), 0.5);
  const util::Json& hist = snapshot.at("histograms").at("lat_us");
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_GT(hist.at("p99").as_number(), hist.at("p50").as_number() * 0.99);
}

TEST(Exporters, SnapshotFileRoundTrips) {
  MetricsRegistry registry;
  registry.counter("n").add(1);
  registry.observe("h_us", 42.0);
  const std::string path = temp_path("dosc_test_snapshot.json");
  write_snapshot(registry, path, {{"scenario", util::Json("unit")}});
  const util::Json loaded = util::Json::load_file(path);
  EXPECT_EQ(loaded.at("schema").as_string(), kSnapshotSchema);
  EXPECT_EQ(loaded.at("scenario").as_string(), "unit");
  EXPECT_EQ(loaded.at("counters").at("n").as_int(), 1);
  EXPECT_EQ(loaded.at("histograms").at("h_us").at("count").as_int(), 1);
  std::remove(path.c_str());
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.complete("cat", "span", 0.0, 1.0);
  tracer.instant("cat", "evt");
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, RecordsSpansAcrossThreads) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete("sim", "a", 10.0, 5.0);
  std::thread worker([&tracer] { tracer.complete("train", "b", 2.0, 1.0); });
  worker.join();
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time; the worker got its own tid.
  EXPECT_STREQ(events[0].name, "b");
  EXPECT_STREQ(events[1].name, "a");
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(Tracer, RingWrapKeepsNewestAndCountsDropped) {
  Tracer tracer(/*ring_capacity=*/4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.complete("cat", "s", static_cast<double>(i), 1.0);
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().ts_us, 6.0);  // oldest kept
  EXPECT_DOUBLE_EQ(events.back().ts_us, 9.0);
  EXPECT_EQ(tracer.dropped_events(), 6u);
}

TEST(Tracer, ChromeJsonIsLoadable) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.complete("sim", "flow_arrival", 0.0, 2.5);
  tracer.instant("sim", "drop");  // ts = now_us() > 0, so it sorts second
  const std::string path = temp_path("dosc_test_trace.json");
  tracer.save_chrome_json(path);
  const util::Json loaded = util::Json::load_file(path);
  EXPECT_EQ(loaded.at("displayTimeUnit").as_string(), "ms");
  const util::Json::Array& events = loaded.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_EQ(events[0].at("name").as_string(), "flow_arrival");
  EXPECT_DOUBLE_EQ(events[0].at("dur").as_number(), 2.5);
  EXPECT_EQ(events[1].at("ph").as_string(), "i");
  for (const util::Json& e : events) {
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("tid"));
    EXPECT_TRUE(e.contains("ts"));
  }
  std::remove(path.c_str());
}

TEST(Tracer, ScopedSpanUsesGlobalTracer) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    DOSC_TRACE_SCOPE("test", "scoped");
    DOSC_TRACE_INSTANT("test", "inside");
  }
  tracer.set_enabled(false);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  bool saw_span = false;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "scoped") {
      saw_span = true;
      EXPECT_EQ(e.phase, 'X');
      EXPECT_GE(e.dur_us, 0.0);
    }
  }
  EXPECT_TRUE(saw_span);
  tracer.clear();
}

TEST(Telemetry, EnableFlagDefaultsOff) {
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace dosc::telemetry
