// dosc_telemetry umbrella header: metrics registry, log-scale latency
// histograms, event tracing, and exporters.
//
// Quick start:
//   telemetry::set_enabled(true);                       // metrics master switch
//   telemetry::Tracer::global().set_enabled(true);      // tracing master switch
//   ... run simulations / training ...
//   telemetry::write_snapshot(telemetry::MetricsRegistry::global(), "telemetry.json");
//   telemetry::Tracer::global().save_chrome_json("trace.json");
//
// Instrumented code uses one of three idioms, cheapest first:
//   1. Plain local counters/histograms flushed at a sync point (simulator,
//      trainer workers) — zero overhead until the flush.
//   2. `if (telemetry::enabled()) { ... }` guards — one relaxed atomic load.
//   3. DOSC_TRACE_SCOPE/DOSC_TRACE_INSTANT macros — one relaxed atomic load
//      when tracing is off.
#pragma once

#include "telemetry/exporters.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
