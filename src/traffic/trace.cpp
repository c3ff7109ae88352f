#include "traffic/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace dosc::traffic {

RateTrace::RateTrace(std::vector<Segment> segments, double horizon)
    : segments_(std::move(segments)), horizon_(horizon) {
  if (segments_.empty()) throw std::invalid_argument("RateTrace: no segments");
  if (segments_.front().start != 0.0) {
    throw std::invalid_argument("RateTrace: first segment must start at 0");
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i].mean_interarrival <= 0.0) {
      throw std::invalid_argument("RateTrace: non-positive mean inter-arrival");
    }
    if (i > 0 && segments_[i].start <= segments_[i - 1].start) {
      throw std::invalid_argument("RateTrace: segment starts must increase");
    }
  }
  if (horizon_ <= segments_.back().start) {
    throw std::invalid_argument("RateTrace: horizon must exceed last segment start");
  }
}

double RateTrace::mean_interarrival_at(double t) const {
  if (segments_.empty()) throw std::logic_error("RateTrace: empty");
  double local = std::fmod(t, horizon_);
  if (local < 0.0) local += horizon_;
  // Last segment whose start <= local.
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), local,
      [](double value, const Segment& s) { return value < s.start; });
  return std::prev(it)->mean_interarrival;
}

util::Json RateTrace::to_json() const {
  util::Json::Array segs;
  for (const Segment& s : segments_) {
    util::Json::Object o;
    o["start"] = util::Json(s.start);
    o["mean_interarrival"] = util::Json(s.mean_interarrival);
    segs.emplace_back(std::move(o));
  }
  util::Json::Object root;
  root["horizon"] = util::Json(horizon_);
  root["segments"] = util::Json(std::move(segs));
  return util::Json(std::move(root));
}

RateTrace RateTrace::from_json(const util::Json& json) {
  std::vector<Segment> segments;
  for (const util::Json& s : json.at("segments").as_array()) {
    segments.push_back({s.at("start").as_number(), s.at("mean_interarrival").as_number()});
  }
  return RateTrace(std::move(segments), json.at("horizon").as_number());
}

void RateTrace::save(const std::string& path) const { to_json().save_file(path); }

RateTrace RateTrace::load(const std::string& path) {
  return from_json(util::Json::load_file(path));
}

RateTrace make_diurnal_trace(const DiurnalTraceConfig& config) {
  const double count = config.horizon / config.segment_length;
  if (config.segment_length <= 0.0 || !(count > 1.0 && count <= kMaxTraceSegments)) {
    throw std::invalid_argument("make_diurnal_trace: bad segment length / horizon");
  }
  util::Rng rng(config.seed);
  std::vector<RateTrace::Segment> segments;
  for (double t = 0.0; t < config.horizon; t += config.segment_length) {
    const double phase = 2.0 * std::numbers::pi * t / config.horizon;
    // Arrival *rate* swings sinusoidally; inter-arrival is its reciprocal.
    const double load = 1.0 + config.diurnal_amplitude * std::sin(phase);
    const double noise = std::max(0.2, 1.0 + rng.normal(0.0, config.noise_stddev));
    const double mean = std::max(config.min_interarrival,
                                 config.base_interarrival / (load * noise));
    segments.push_back({t, mean});
  }
  return RateTrace(std::move(segments), config.horizon);
}

RateTrace make_flash_crowd_trace(const FlashCrowdConfig& config) {
  if (config.segment_length <= 0.0 || config.horizon <= config.segment_length) {
    throw std::invalid_argument("make_flash_crowd_trace: bad segment length / horizon");
  }
  if (config.crowd_intensity < 1.0 || config.crowd_duration <= 0.0 ||
      config.ramp_fraction < 0.0 || config.ramp_fraction > 0.5) {
    throw std::invalid_argument("make_flash_crowd_trace: bad crowd shape");
  }
  if (static_cast<double>(config.num_crowds) * config.crowd_duration >
      0.5 * config.horizon) {
    throw std::invalid_argument("make_flash_crowd_trace: crowds cover most of the horizon");
  }
  util::Rng rng(config.seed);
  // Non-overlapping spike starts: partition the horizon into num_crowds
  // equal windows and place one spike uniformly inside each, so a sorted,
  // disjoint layout falls out deterministically without rejection loops.
  std::vector<double> starts;
  const double window = config.horizon / std::max<std::size_t>(1, config.num_crowds);
  for (std::size_t i = 0; i < config.num_crowds; ++i) {
    const double lo = static_cast<double>(i) * window;
    const double slack = window - config.crowd_duration;
    starts.push_back(lo + rng.uniform(0.0, std::max(slack, 0.0)));
  }
  std::vector<RateTrace::Segment> segments;
  for (double t = 0.0; t < config.horizon; t += config.segment_length) {
    const double phase = 2.0 * std::numbers::pi * t / config.horizon;
    double load = 1.0 + config.diurnal_amplitude * std::sin(phase);
    for (const double start : starts) {
      const double into = t - start;
      if (into < 0.0 || into >= config.crowd_duration) continue;
      // Trapezoidal spike: ramp up, plateau at crowd_intensity, ramp down.
      const double ramp = config.ramp_fraction * config.crowd_duration;
      double shape = 1.0;
      if (ramp > 0.0 && into < ramp) {
        shape = into / ramp;
      } else if (ramp > 0.0 && into > config.crowd_duration - ramp) {
        shape = (config.crowd_duration - into) / ramp;
      }
      load *= 1.0 + (config.crowd_intensity - 1.0) * shape;
    }
    const double mean =
        std::max(config.min_interarrival, config.base_interarrival / load);
    segments.push_back({t, mean});
  }
  return RateTrace(std::move(segments), config.horizon);
}

}  // namespace dosc::traffic
