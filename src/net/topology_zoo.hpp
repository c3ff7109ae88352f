// Real-world evaluation topologies (Table I of the paper).
//
// Abilene is embedded with its real 11 US cities and 14 links; link delays
// are derived from great-circle distances, as in the paper. The three larger
// topologies (BT Europe, China Telecom, Interroute) come from the Internet
// Topology Zoo, whose GraphML files are not redistributable here; we instead
// generate connected graphs that exactly reproduce Table I's node count,
// edge count, and min/max/avg degree (see DESIGN.md, substitution #1). The
// evaluation only exercises a topology through those statistics plus
// randomly drawn capacities, so the substitution preserves the experiments.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"

namespace dosc::net {

/// Default conversion from km of fiber to propagation delay. Calibrated so
/// the Abilene shortest-path end-to-end delay of the base scenario matches
/// the paper's Fig. 7 (SP completes in ~21 ms including 3x5 ms processing).
inline constexpr double kDefaultDelayPerKm = 0.0028;

/// Summary statistics in the format of Table I.
struct TopologyStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t min_degree = 0;
  std::size_t max_degree = 0;
  double avg_degree = 0.0;
};

TopologyStats stats(const Network& network);

/// The Abilene research network: 11 nodes, 14 edges, degree 2/3/2.55.
/// Node ids follow the paper's v1..v11 convention shifted to 0-based:
/// index 0..2 (v1..v3) are the co-located east-coast ingress candidates
/// (New York, Washington DC, Atlanta), 3..4 (v4, v5) the distant west-coast
/// ingresses (Seattle, Sunnyvale), and index 7 (v8) the egress (Kansas
/// City). Capacities are zero until assigned by the scenario.
Network abilene(double delay_per_km = kDefaultDelayPerKm);

/// BT Europe: 24 nodes, 37 edges, degree 1/13/3.08.
Network bt_europe();

/// China Telecom: 42 nodes, 66 edges, degree 1/20/3.14 (highly skewed).
Network china_telecom();

/// Interroute: 110 nodes, 158 edges, degree 1/7/2.87.
Network interroute();

/// Lookup by case-insensitive name ("abilene", "bt_europe",
/// "china_telecom", "interroute"). Throws std::invalid_argument otherwise.
Network by_name(std::string_view name);

/// Names accepted by by_name(), in Table I order.
std::vector<std::string> topology_names();

/// Parameters for the deterministic Table-I-matching generator. The graph
/// consists of a hub of degree exactly `max_degree`, a connected core path,
/// `leaves` degree-1 stub nodes, and chord edges drawn with a seeded RNG
/// until `edges` is reached.
struct SyntheticTopologyConfig {
  std::string name;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t max_degree = 0;
  std::size_t leaves = 0;
  std::uint64_t seed = 0;
};

Network synthetic_topology(const SyntheticTopologyConfig& config);

}  // namespace dosc::net
