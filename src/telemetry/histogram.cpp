#include "telemetry/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dosc::telemetry {

Histogram::Histogram(const HistogramConfig& config) : config_(config) {
  if (!(config_.min_value > 0.0) || !(config_.max_value > config_.min_value) ||
      config_.buckets_per_decade == 0) {
    throw std::invalid_argument("Histogram: invalid config");
  }
  inv_log_width_ = static_cast<double>(config_.buckets_per_decade) / std::log(10.0);
  const double decades = std::log10(config_.max_value / config_.min_value);
  const std::size_t real_buckets = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(config_.buckets_per_decade) - 1e-9));
  buckets_.assign(real_buckets + 2, 0);  // + underflow + overflow
}

std::size_t Histogram::bucket_index(double value) const noexcept {
  if (!(value >= config_.min_value)) return 0;  // underflow (also NaN)
  if (value >= config_.max_value) return buckets_.size() - 1;
  const std::size_t i =
      static_cast<std::size_t>(std::log(value / config_.min_value) * inv_log_width_);
  return std::min(i + 1, buckets_.size() - 2);
}

double Histogram::bucket_lower(std::size_t i) const noexcept {
  if (i == 0) return 0.0;
  if (i == buckets_.size() - 1) return config_.max_value;
  return config_.min_value *
         std::pow(10.0, static_cast<double>(i - 1) /
                            static_cast<double>(config_.buckets_per_decade));
}

double Histogram::bucket_upper(std::size_t i) const noexcept {
  if (i == 0) return config_.min_value;
  if (i == buckets_.size() - 1) return std::numeric_limits<double>::infinity();
  return std::min(config_.max_value,
                  config_.min_value *
                      std::pow(10.0, static_cast<double>(i) /
                                         static_cast<double>(config_.buckets_per_decade)));
}

void Histogram::add(double value, std::uint64_t weight) noexcept {
  if (weight == 0) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  buckets_[bucket_index(value)] += weight;
  count_ += weight;
  sum_ += value * static_cast<double>(weight);
}

void Histogram::merge(const Histogram& other) {
  if (!(config_ == other.config_)) {
    throw std::invalid_argument("Histogram::merge: config mismatch");
  }
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // The extremes are tracked exactly; don't approximate them via buckets.
  if (p == 0.0) return min_;
  if (p == 100.0) return max_;
  // Rank in [1, count]: the k-th smallest recorded value.
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(count_));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double frac = (rank - before) / static_cast<double>(buckets_[i]);
      double lo = bucket_lower(i);
      double hi = bucket_upper(i);
      // The open-ended overflow bucket interpolates towards the observed max.
      if (i == buckets_.size() - 1 || !std::isfinite(hi)) hi = std::max(max_, lo);
      const double value = lo + (hi - lo) * frac;
      return std::clamp(value, min_, max_);
    }
  }
  return max_;
}

util::Json Histogram::to_json() const {
  util::Json::Object config;
  config["min_value"] = config_.min_value;
  config["max_value"] = config_.max_value;
  config["buckets_per_decade"] = config_.buckets_per_decade;
  util::Json::Array sparse;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    sparse.push_back(util::Json(util::Json::Array{
        util::Json(static_cast<double>(i)), util::Json(static_cast<double>(buckets_[i]))}));
  }
  util::Json::Object out;
  out["config"] = util::Json(std::move(config));
  out["count"] = static_cast<double>(count_);
  out["sum"] = sum_;
  out["min"] = min_;
  out["max"] = max_;
  out["buckets"] = util::Json(std::move(sparse));
  return util::Json(std::move(out));
}

}  // namespace dosc::telemetry
