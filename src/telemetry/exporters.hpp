// Stable on-disk formats for telemetry data.
//
//  * JSON snapshot ("dosc.telemetry.v1"): one registry dump — counters,
//    gauges, histograms with summary percentiles. Written by dosc_cli
//    --telemetry-out and consumed by scripts diffing runs.
//  * Bench results ("dosc.bench.v1"): bench_common's machine-diffable
//    BENCH_<name>.json — see bench/bench_common.hpp for the writer.
#pragma once

#include <string>

#include "telemetry/registry.hpp"
#include "util/json.hpp"

namespace dosc::telemetry {

inline constexpr const char* kSnapshotSchema = "dosc.telemetry.v1";

/// Versioned registry snapshot: {"schema", "counters", "gauges",
/// "histograms"}. `extra` entries are merged into the top-level object
/// (e.g. scenario name, git revision).
util::Json snapshot_json(const MetricsRegistry& registry,
                         const util::Json::Object& extra = {});
void write_snapshot(const MetricsRegistry& registry, const std::string& path,
                    const util::Json::Object& extra = {});

}  // namespace dosc::telemetry
