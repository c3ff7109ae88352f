#include "traffic/spec.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace dosc::traffic {

const char* arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kFixed: return "fixed";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kMmpp: return "mmpp";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

ArrivalKind parse_arrival_kind(std::string_view name) {
  if (name == "fixed") return ArrivalKind::kFixed;
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "mmpp") return ArrivalKind::kMmpp;
  if (name == "trace") return ArrivalKind::kTrace;
  throw std::invalid_argument("unknown arrival kind: " + std::string(name));
}

std::unique_ptr<ArrivalProcess> TrafficSpec::make_process() const {
  switch (kind) {
    case ArrivalKind::kFixed:
      return std::make_unique<FixedArrival>(mean_interarrival);
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrival>(mean_interarrival);
    case ArrivalKind::kMmpp:
      return std::make_unique<MmppArrival>(mmpp_mean_a, mmpp_mean_b, mmpp_switch_period,
                                           mmpp_switch_prob);
    case ArrivalKind::kTrace: {
      if (trace.has_value()) return std::make_unique<TraceArrival>(*trace);
      DiurnalTraceConfig config;
      config.seed = trace_seed;
      config.horizon = trace_horizon;
      config.base_interarrival = mean_interarrival;
      return std::make_unique<TraceArrival>(make_diurnal_trace(config));
    }
  }
  throw std::logic_error("TrafficSpec: invalid kind");
}

TrafficSpec TrafficSpec::diurnal_trace(std::uint64_t seed, double horizon,
                                       double base_interarrival) {
  TrafficSpec s;
  s.kind = ArrivalKind::kTrace;
  s.trace_seed = seed;
  s.trace_horizon = horizon;
  s.mean_interarrival = base_interarrival;
  DiurnalTraceConfig config;
  config.seed = seed;
  config.horizon = horizon;
  config.base_interarrival = base_interarrival;
  s.trace = make_diurnal_trace(config);
  return s;
}

TrafficSpec TrafficSpec::flash_crowd(const FlashCrowdConfig& config) {
  TrafficSpec s;
  s.kind = ArrivalKind::kTrace;
  s.trace_seed = config.seed;
  s.trace_horizon = config.horizon;
  s.mean_interarrival = config.base_interarrival;
  s.trace = make_flash_crowd_trace(config);
  return s;
}

util::Json TrafficSpec::to_json() const {
  util::Json::Object o;
  o["kind"] = util::Json(std::string(arrival_kind_name(kind)));
  o["mean_interarrival"] = util::Json(mean_interarrival);
  o["mmpp_mean_a"] = util::Json(mmpp_mean_a);
  o["mmpp_mean_b"] = util::Json(mmpp_mean_b);
  o["mmpp_switch_period"] = util::Json(mmpp_switch_period);
  o["mmpp_switch_prob"] = util::Json(mmpp_switch_prob);
  o["trace_seed"] = util::Json(static_cast<double>(trace_seed));
  o["trace_horizon"] = util::Json(trace_horizon);
  if (trace.has_value()) o["trace"] = trace->to_json();
  return util::Json(std::move(o));
}

TrafficSpec TrafficSpec::from_json(const util::Json& json) {
  TrafficSpec s;
  s.kind = parse_arrival_kind(json.at("kind").as_string());
  s.mean_interarrival = json.number_or("mean_interarrival", s.mean_interarrival);
  s.mmpp_mean_a = json.number_or("mmpp_mean_a", s.mmpp_mean_a);
  s.mmpp_mean_b = json.number_or("mmpp_mean_b", s.mmpp_mean_b);
  s.mmpp_switch_period = json.number_or("mmpp_switch_period", s.mmpp_switch_period);
  s.mmpp_switch_prob = json.number_or("mmpp_switch_prob", s.mmpp_switch_prob);
  if (json.contains("trace_seed")) {
    s.trace_seed = json.at("trace_seed").as_uint("trace_seed", 0,
                                                 std::numeric_limits<std::uint64_t>::max());
  }
  s.trace_horizon = json.number_or("trace_horizon", s.trace_horizon);
  if (json.contains("trace")) s.trace = RateTrace::from_json(json.at("trace"));
  // Without an embedded trace, the Simulator generates one segment per
  // 500 ms of horizon: refuse a horizon make_diurnal_trace would reject
  // here, by name, before anything is allocated.
  if (s.kind == ArrivalKind::kTrace && !s.trace.has_value()) {
    const double segments = s.trace_horizon / DiurnalTraceConfig::segment_length;
    if (!(segments > 1.0 && segments <= kMaxTraceSegments)) {
      throw util::JsonError(
          "JSON field 'trace_horizon' must exceed one 500 ms segment and span at most " +
          std::to_string(static_cast<std::uint64_t>(kMaxTraceSegments)) + " segments, got " +
          util::Json(s.trace_horizon).dump());
    }
  }
  return s;
}

}  // namespace dosc::traffic
