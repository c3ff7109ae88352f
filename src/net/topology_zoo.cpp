#include "net/topology_zoo.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/rng.hpp"

namespace dosc::net {

TopologyStats stats(const Network& network) {
  TopologyStats s;
  s.nodes = network.num_nodes();
  s.edges = network.num_links();
  s.min_degree = network.min_degree();
  s.max_degree = network.max_degree();
  s.avg_degree = network.avg_degree();
  return s;
}

namespace {

struct City {
  const char* name;
  double lat;
  double lon;
};

/// Great-circle distance in km (haversine, mean Earth radius).
double haversine_km(const City& a, const City& b) {
  constexpr double kRadiusKm = 6371.0;
  constexpr double kDeg2Rad = std::numbers::pi / 180.0;
  const double lat1 = a.lat * kDeg2Rad;
  const double lat2 = b.lat * kDeg2Rad;
  const double dlat = (b.lat - a.lat) * kDeg2Rad;
  const double dlon = (b.lon - a.lon) * kDeg2Rad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

}  // namespace

Network abilene(double delay_per_km) {
  // Paper node order (0-based v1..v11): the first three are the co-located
  // east-coast nodes whose shortest paths to the egress overlap; v4/v5 are
  // the far west-coast ingresses; v8 (index 7) is the egress.
  const City cities[] = {
      {"NewYork", 40.71, -74.01},       // v1
      {"WashingtonDC", 38.91, -77.04},  // v2
      {"Atlanta", 33.75, -84.39},       // v3
      {"Seattle", 47.61, -122.33},      // v4
      {"Sunnyvale", 37.37, -122.04},    // v5
      {"LosAngeles", 34.05, -118.24},   // v6
      {"Houston", 29.76, -95.37},       // v7
      {"KansasCity", 39.10, -94.58},    // v8 (egress)
      {"Indianapolis", 39.77, -86.16},  // v9
      {"Chicago", 41.88, -87.63},       // v10
      {"Denver", 39.74, -104.99},       // v11
  };
  NetworkBuilder builder("Abilene");
  for (const City& c : cities) builder.add_node(c.name, 0.0, c.lon, c.lat);

  const auto link = [&](NodeId a, NodeId b) {
    builder.add_link(a, b, haversine_km(cities[a], cities[b]) * delay_per_km, 0.0);
  };
  // The 14 real Abilene links.
  link(3, 4);   // Seattle - Sunnyvale
  link(3, 10);  // Seattle - Denver
  link(4, 5);   // Sunnyvale - LosAngeles
  link(4, 10);  // Sunnyvale - Denver
  link(5, 6);   // LosAngeles - Houston
  link(10, 7);  // Denver - KansasCity
  link(6, 7);   // Houston - KansasCity
  link(6, 2);   // Houston - Atlanta
  link(7, 8);   // KansasCity - Indianapolis
  link(2, 8);   // Atlanta - Indianapolis
  link(2, 1);   // Atlanta - WashingtonDC
  link(8, 9);   // Indianapolis - Chicago
  link(9, 0);   // Chicago - NewYork
  link(0, 1);   // NewYork - WashingtonDC
  return std::move(builder).build();
}

Network synthetic_topology(const SyntheticTopologyConfig& config) {
  const std::size_t n = config.nodes;
  const std::size_t leaves = config.leaves;
  if (n < 4 || config.edges < n - 1 || leaves + 2 >= n ||
      config.max_degree < 3 || config.max_degree >= n) {
    throw std::invalid_argument("synthetic_topology: inconsistent config");
  }
  const std::size_t core = n - leaves;  // nodes 0..core-1; node 0 is the hub
  if (config.max_degree > core - 1) {
    throw std::invalid_argument("synthetic_topology: hub degree exceeds core size");
  }

  util::Rng rng(config.seed);
  NetworkBuilder builder(config.name);

  // Planar layout for visualisation only; delays are drawn directly.
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    builder.add_node("n" + std::to_string(i), 0.0, std::cos(angle), std::sin(angle));
  }
  // Per-link delays are uniform in [1, 4] ms.
  const auto delay = [&] { return rng.uniform(1.0, 4.0); };
  std::vector<std::size_t> degree(n, 0);
  const auto link = [&](NodeId a, NodeId b) {
    builder.add_link(a, b, delay(), 0.0);
    ++degree[a];
    ++degree[b];
  };

  // 1) Connected core path over nodes 1..core-1.
  for (std::size_t i = 1; i + 1 < core; ++i) {
    link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  // 2) Hub (node 0) with degree exactly max_degree: connect to 1..max_degree.
  for (std::size_t i = 1; i <= config.max_degree; ++i) {
    link(0, static_cast<NodeId>(i));
  }
  // 3) Degree-1 leaves attached round-robin to core nodes (skipping the hub
  //    so its degree stays exactly max_degree).
  for (std::size_t i = 0; i < leaves; ++i) {
    const NodeId leaf = static_cast<NodeId>(core + i);
    const NodeId host = static_cast<NodeId>(1 + (i * 7) % (core - 1));
    link(leaf, host);
  }
  // 4) Chords among core nodes (excluding the hub) until the edge budget is
  //    met. Degrees stay strictly below max_degree so the hub remains the
  //    unique maximum, matching the skew the paper highlights.
  std::size_t guard = 0;
  while (builder.num_links() < config.edges) {
    if (++guard > 100000) {
      throw std::runtime_error("synthetic_topology: failed to place chord edges");
    }
    const NodeId a = static_cast<NodeId>(rng.uniform_int(1, static_cast<std::int64_t>(core) - 1));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(1, static_cast<std::int64_t>(core) - 1));
    if (a == b || builder.has_link(a, b)) continue;
    if (degree[a] + 1 >= config.max_degree || degree[b] + 1 >= config.max_degree) continue;
    link(a, b);
  }

  Network network = std::move(builder).build();
  if (!network.connected()) {
    throw std::runtime_error("synthetic_topology: generated graph not connected");
  }
  return network;
}

Network bt_europe() {
  return synthetic_topology({.name = "BT Europe",
                             .nodes = 24,
                             .edges = 37,
                             .max_degree = 13,
                             .leaves = 4,
                             .seed = 0xB7E});
}

Network china_telecom() {
  return synthetic_topology({.name = "China Telecom",
                             .nodes = 42,
                             .edges = 66,
                             .max_degree = 20,
                             .leaves = 6,
                             .seed = 0xC7C});
}

Network interroute() {
  return synthetic_topology({.name = "Interroute",
                             .nodes = 110,
                             .edges = 158,
                             .max_degree = 7,
                             .leaves = 20,
                             .seed = 0x1427});
}

Network by_name(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "abilene") return abilene();
  if (lower == "bt_europe" || lower == "bt europe") return bt_europe();
  if (lower == "china_telecom" || lower == "china telecom") return china_telecom();
  if (lower == "interroute") return interroute();
  throw std::invalid_argument("unknown topology: " + std::string(name));
}

std::vector<std::string> topology_names() {
  return {"abilene", "bt_europe", "china_telecom", "interroute"};
}

}  // namespace dosc::net
