// Fixed-bucket log-scale latency histogram (HdrHistogram-style).
//
// Buckets are spaced geometrically: `buckets_per_decade` buckets per power
// of ten between `min_value` and `max_value`, plus an underflow and an
// overflow bucket. The layout is a pure function of the config, so two
// histograms with the same config merge exactly (bucket-wise addition) —
// this is what lets the parallel_envs trainer workers record locally and
// merge into the process-wide registry without locks on the hot path.
//
// Percentiles interpolate linearly inside the selected bucket and are
// clamped to the observed [min, max], so their relative error is bounded
// by the bucket width 10^(1/buckets_per_decade) (~15 % at the default 16
// buckets per decade).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/json.hpp"

namespace dosc::telemetry {

struct HistogramConfig {
  double min_value = 0.01;           ///< lower edge of the first real bucket
  double max_value = 1e7;            ///< values >= this land in the overflow bucket
  std::size_t buckets_per_decade = 16;

  bool operator==(const HistogramConfig& other) const noexcept {
    return min_value == other.min_value && max_value == other.max_value &&
           buckets_per_decade == other.buckets_per_decade;
  }
};

/// Value-semantic histogram; not thread-safe (record per thread, merge).
class Histogram {
 public:
  explicit Histogram(const HistogramConfig& config = HistogramConfig{});

  void add(double value, std::uint64_t weight = 1) noexcept;
  /// Bucket-wise addition. Throws std::invalid_argument on config mismatch.
  void merge(const Histogram& other);
  void reset() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double max() const noexcept { return count_ > 0 ? max_ : 0.0; }

  /// p in [0, 100]; 0 for an empty histogram. Linear interpolation within
  /// the bucket holding the rank, clamped to the observed min/max.
  double percentile(double p) const noexcept;

  const HistogramConfig& config() const noexcept { return config_; }
  std::size_t num_buckets() const noexcept { return buckets_.size(); }
  std::uint64_t bucket_count(std::size_t i) const { return buckets_.at(i); }
  /// Index of the bucket `value` falls into (0 = underflow, last = overflow).
  std::size_t bucket_index(double value) const noexcept;
  /// [lower, upper) value range of bucket i. The underflow bucket's lower
  /// edge is 0 and the overflow bucket's upper edge is +inf.
  double bucket_lower(std::size_t i) const noexcept;
  double bucket_upper(std::size_t i) const noexcept;

  /// Stable schema: {"config": {...}, "count", "sum", "min", "max",
  /// "buckets": [[index, count], ...]} (sparse; empty buckets omitted).
  /// Write-only: snapshots are for external tools, nothing reads them back.
  util::Json to_json() const;

 private:
  HistogramConfig config_;
  double inv_log_width_ = 1.0;  ///< buckets_per_decade / ln(10)
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Shared default for all latency-in-microseconds histograms: 10 ns .. 10 s.
inline HistogramConfig latency_histogram_config() noexcept { return HistogramConfig{}; }

}  // namespace dosc::telemetry
