// Scenario description: everything that defines one evaluation setting —
// topology, capacity ranges, service catalog, ingress/egress sets, traffic
// pattern, flow template, and episode length (Sec. V-A1).
//
// A Scenario owns the (capacity-free) topology and its precomputed shortest
// paths; Simulators instantiated from it draw per-seed capacities on their
// own copy, so one Scenario can back many parallel episodes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/shortest_paths.hpp"
#include "sim/service.hpp"
#include "traffic/spec.hpp"
#include "util/json.hpp"

namespace dosc::sim {

/// Template from which arriving flows are stamped. Multiple templates with
/// weights model a service mix; the paper's evaluation uses a single one
/// (unit rate/duration, deadline 100).
struct FlowTemplate {
  ServiceId service = 0;
  double rate = 1.0;      ///< lambda_f
  double duration = 1.0;  ///< delta_f
  double deadline = 100.0;  ///< tau_f
  double weight = 1.0;    ///< relative probability of this template
};

/// A scheduled substrate failure (robustness experiments). While a node is
/// down it has no compute capacity, its instances are gone, and any flow
/// arriving or processing there is dropped; a down link carries nothing.
/// Agents are not told about failures explicitly — they observe them only
/// through the free-capacity observations, as they would via monitoring.
struct FailureEvent {
  enum class Kind { kNode, kLink };
  Kind kind = Kind::kNode;
  std::uint32_t id = 0;    ///< node or link id
  double start = 0.0;      ///< failure time (ms)
  double duration = 0.0;   ///< recovery after this long; <= 0 means permanent
};

struct ScenarioConfig {
  std::string name = "base";
  std::string topology = "abilene";  ///< used unless a Network is supplied
  double node_cap_lo = 0.0;
  double node_cap_hi = 2.0;
  double link_cap_lo = 1.0;
  double link_cap_hi = 5.0;
  /// When false, the capacities already on the Network are kept verbatim
  /// instead of being redrawn per seed (hand-crafted scenarios, tests).
  bool randomize_capacities = true;
  std::vector<net::NodeId> ingress{0, 1};  ///< paper: v1..v5 -> indices 0..4
  net::NodeId egress = 7;                  ///< paper: v8 -> index 7
  traffic::TrafficSpec traffic = traffic::TrafficSpec::poisson(10.0);
  std::vector<FlowTemplate> flows{FlowTemplate{}};
  double end_time = 20000.0;  ///< T: traffic generation horizon (ms)
  double park_step = 1.0;     ///< wait when a finished flow is kept (1 step)
  std::vector<FailureEvent> failures;  ///< substrate failures to inject

  util::Json to_json() const;
  static ScenarioConfig from_json(const util::Json& json);
};

class Scenario {
 public:
  /// Build from a named Table-I topology.
  Scenario(ScenarioConfig config, ServiceCatalog catalog);
  /// Build with an explicit topology (tests, custom networks).
  Scenario(ScenarioConfig config, ServiceCatalog catalog, net::Network network);

  const ScenarioConfig& config() const noexcept { return config_; }
  const ServiceCatalog& catalog() const noexcept { return catalog_; }
  const net::Network& network() const noexcept { return *network_; }
  const net::ShortestPaths& shortest_paths() const noexcept { return *shortest_paths_; }

  /// Size of the action space: Delta_G + 1 (local + one per neighbour slot).
  std::size_t num_actions() const noexcept { return network_->max_degree() + 1; }

  /// Copy of this scenario with a different traffic-generation horizon
  /// (training episodes are shorter than the 20000 ms evaluation episodes).
  Scenario with_end_time(double end_time) const;

  /// Self-contained scenario document: the config plus the embedded
  /// topology ("network") and service catalog ("catalog"), so generated
  /// scenarios (corpus entries) round-trip without relying on a named
  /// Table-I topology or the default video-streaming catalog.
  util::Json to_json() const;
  /// Parse either a full scenario document or a bare ScenarioConfig: when
  /// "network" is absent the config's named topology is used, and when
  /// "catalog" is absent the paper's video-streaming catalog is assumed
  /// (backwards compatible with the hand-written scenarios/*.json files).
  static Scenario from_json(const util::Json& json);

  void save(const std::string& path) const;

 private:
  void validate() const;

  ScenarioConfig config_;
  ServiceCatalog catalog_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ShortestPaths> shortest_paths_;
};

/// The paper's base scenario (Sec. V-A1): Abilene, video streaming chain
/// <c_FW, c_IDS, c_video> with d_c = 5 ms, node capacities U[0,2], link
/// capacities U[1,5], unit flows with deadline tau, egress v8, ingress
/// v1..v{num_ingress}.
Scenario make_base_scenario(std::size_t num_ingress = 2,
                            traffic::TrafficSpec traffic = traffic::TrafficSpec::poisson(10.0),
                            double deadline = 100.0, const std::string& topology = "abilene",
                            double end_time = 20000.0);

/// Load a scenario JSON file (full document or bare config; see
/// Scenario::from_json), or build the corpus entry named by
/// "corpus:<name>" from its seed (sim/corpus.hpp; std::invalid_argument
/// for an unknown name). The single entry point the CLI, the serving
/// daemon, and the benches share.
Scenario load_scenario(const std::string& path);

}  // namespace dosc::sim
