#include "telemetry/exporters.hpp"

namespace dosc::telemetry {

util::Json snapshot_json(const MetricsRegistry& registry, const util::Json::Object& extra) {
  util::Json::Object out = registry.snapshot().as_object();
  out["schema"] = kSnapshotSchema;
  for (const auto& [key, value] : extra) out[key] = value;
  return util::Json(std::move(out));
}

void write_snapshot(const MetricsRegistry& registry, const std::string& path,
                    const util::Json::Object& extra) {
  snapshot_json(registry, extra).save_file(path, /*indent=*/2);
}

}  // namespace dosc::telemetry
