// Traffic traces: time-varying mean inter-arrival times.
//
// The paper's Fig. 6d/8a use real-world Abilene traffic traces from SNDlib,
// which are not redistributable; we substitute a synthetic diurnal trace
// generator (sinusoidal day profile plus seeded burst noise) that preserves
// the property the experiments rely on: the arrival rate drifts over time
// beyond what stationary Poisson/MMPP models capture (DESIGN.md,
// substitution #2). Traces can be saved to / loaded from JSON so real
// SNDlib-derived rate series can be dropped in by users who have them.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace dosc::traffic {

/// Piecewise-constant mean inter-arrival time over simulation time. The
/// trace loops when simulation time exceeds its horizon.
class RateTrace {
 public:
  struct Segment {
    double start = 0.0;              ///< segment start time (ms)
    double mean_interarrival = 0.0;  ///< mean inter-arrival during segment
  };

  RateTrace() = default;
  /// Segments must be non-empty, start at 0, strictly increase, and have
  /// positive means. `horizon` is the loop period (> last segment start).
  RateTrace(std::vector<Segment> segments, double horizon);

  /// Mean inter-arrival at absolute time t (loops past the horizon).
  double mean_interarrival_at(double t) const;

  double horizon() const noexcept { return horizon_; }
  const std::vector<Segment>& segments() const noexcept { return segments_; }

  util::Json to_json() const;
  static RateTrace from_json(const util::Json& json);
  void save(const std::string& path) const;
  static RateTrace load(const std::string& path);

 private:
  std::vector<Segment> segments_;
  double horizon_ = 0.0;
};

/// Parameters for the synthetic diurnal trace.
struct DiurnalTraceConfig {
  double horizon = 20000.0;          ///< trace length / loop period (ms)
  double base_interarrival = 10.0;   ///< mean inter-arrival at average load
  std::uint64_t seed = 0;
  static constexpr double segment_length = 500.0;    ///< rate update granularity
  static constexpr double diurnal_amplitude = 0.4;   ///< relative swing of the day profile
  static constexpr double noise_stddev = 0.15;       ///< relative multiplicative burst noise
  static constexpr double min_interarrival = 2.0;    ///< clamp to keep rates finite
};

/// Most segments a generated diurnal trace may hold (16 MB; a ~6-day loop
/// period at the default 500 ms segments). A longer horizon is an error,
/// not an allocation of one segment per segment length.
inline constexpr double kMaxTraceSegments = 1048576.0;  // 2^20

/// Generate a diurnal trace: mean inter-arrival follows
/// base / (1 + amplitude * sin(2*pi*t/horizon)) with per-segment noise.
/// Throws std::invalid_argument unless the horizon spans more than one and
/// at most kMaxTraceSegments segments.
RateTrace make_diurnal_trace(const DiurnalTraceConfig& config);

/// Parameters for the flash-crowd trace: a flat baseline rate with a few
/// short, deep arrival-rate spikes at seeded times — the "everyone opens
/// the app at once" load program the corpus scenarios use.
struct FlashCrowdConfig {
  double horizon = 20000.0;         ///< trace length / loop period (ms)
  double base_interarrival = 10.0;  ///< mean inter-arrival off-crowd
  std::size_t num_crowds = 3;       ///< spikes per horizon
  double crowd_duration = 1000.0;   ///< how long each spike lasts (ms)
  double crowd_intensity = 6.0;     ///< rate multiplier at the spike peak
  std::uint64_t seed = 0;
  static constexpr double segment_length = 250.0;   ///< rate update granularity
  static constexpr double ramp_fraction = 0.25;     ///< leading/trailing ramp share of a spike
  static constexpr double min_interarrival = 0.25;  ///< clamp to keep rates finite
};

/// Generate a flash-crowd trace: `num_crowds` seeded spikes where the
/// arrival rate ramps up to `crowd_intensity` x the baseline and back down.
/// Spike start times are drawn so spikes never overlap or touch t = 0.
RateTrace make_flash_crowd_trace(const FlashCrowdConfig& config);

}  // namespace dosc::traffic
