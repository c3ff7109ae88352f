// Scenario corpus generator: structured topology families, load programs,
// and the seeded corpus library that sim::load_scenario("corpus:<name>")
// builds on demand.
//
// Where the ScenarioFuzzer (check/fuzzer.hpp) draws small random-but-valid
// scenarios for differential testing, the corpus generator produces the
// *structured* workloads the ROADMAP's scale items are measured against:
//
//   * k-ary fat-tree/Clos fabrics (host/edge/aggregation/core tiers, the
//     DCSim data-center setting: k=4 -> 36 nodes, k=8 -> 208 nodes);
//   * city-scale WANs (uniform planar placement, Waxman-style geometric
//     edges on top of a nearest-neighbour attachment tree, link delay
//     proportional to Euclidean distance);
//   * load programs layered on the traffic model: steady Poisson, diurnal
//     sinusoidal modulation, flash-crowd bursts (traffic/trace.hpp), and
//     correlated link/node failure storms (a seeded cluster of co-located
//     failures around an epicenter, not independent draws);
//   * long service chains (6-10 components) and multi-tenant service
//     mixes over a shared component pool.
//
// Every generator is deterministic from one util::Rng, so a corpus entry
// regenerates byte-identically: test_corpus pins each entry's
// Scenario::to_json text by content hash, and runs every entry under the
// InvariantAuditor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace dosc::sim {

// ---------------------------------------------------------------------------
// Topology families
// ---------------------------------------------------------------------------

struct FatTreeParams {
  /// Pod count / switch radix. Must be even and >= 2. Node count is
  /// k^3/4 hosts + k^2 pod switches + (k/2)^2 cores (36 for k=4, 208 for
  /// k=8): every pod has k/2 edge and k/2 aggregation switches, each edge
  /// switch serves k/2 hosts, and aggregation switch j of every pod
  /// connects to cores [j*k/2, (j+1)*k/2).
  std::size_t k = 4;
  double host_edge_delay = 0.5;  ///< ms, intra-rack
  double edge_agg_delay = 1.0;   ///< ms, intra-pod
  double agg_core_delay = 2.0;   ///< ms, pod to spine
  /// Relative +- jitter applied per link (one uniform draw per link), so
  /// shortest-path ties are broken by topology, not by node-id accidents.
  double delay_jitter = 0.2;
};

/// Node-id ranges of each fat-tree tier, in construction order.
struct FatTreeTiers {
  std::vector<net::NodeId> hosts;
  std::vector<net::NodeId> edges;
  std::vector<net::NodeId> aggs;
  std::vector<net::NodeId> cores;
};

/// Build a k-ary fat-tree/Clos fabric. Deterministic given (params, rng
/// state). Capacities are left 0 (scenarios draw them per seed).
net::Network make_fat_tree(const FatTreeParams& params, util::Rng& rng,
                           FatTreeTiers* tiers = nullptr);

struct WanParams {
  std::size_t num_nodes = 100;
  double extent = 100.0;  ///< nodes placed uniformly in [0,extent)^2
  /// Waxman edge probability P(u,v) = alpha * exp(-d(u,v) / (beta * L))
  /// with L = sqrt(2) * extent, applied on top of a nearest-neighbour
  /// attachment tree that guarantees connectivity.
  double waxman_alpha = 0.9;
  double waxman_beta = 0.12;
  double delay_per_unit = 0.05;  ///< ms per distance unit (propagation)
  double min_delay = 0.2;        ///< ms floor on any link delay
};

/// Build a city-scale WAN. Deterministic given (params, rng state); link
/// delays are min_delay + delay_per_unit * distance, so the delay of any
/// link is bounded by min_delay + delay_per_unit * sqrt(2) * extent.
net::Network make_wan(const WanParams& params, util::Rng& rng);

// ---------------------------------------------------------------------------
// Load programs
// ---------------------------------------------------------------------------

struct FailureStormParams {
  std::size_t num_node_failures = 5;
  std::size_t num_link_failures = 4;
  double start_frac = 0.3;   ///< storm onset as a fraction of end_time
  double stagger_ms = 150.0; ///< mean spacing between successive failures
  double outage_ms = 1500.0; ///< mean outage duration
};

/// Correlated failure storm: picks a seeded epicenter (never the egress)
/// and fails the BFS-nearest nodes plus links internal to that cluster,
/// with staggered starts and jittered outage lengths — co-located by
/// construction, unlike independent per-element draws.
std::vector<FailureEvent> make_failure_storm(const net::Network& network,
                                             const FailureStormParams& params,
                                             net::NodeId egress, double end_time,
                                             util::Rng& rng);

// ---------------------------------------------------------------------------
// Service catalogs
// ---------------------------------------------------------------------------

/// One service whose chain visits `length` distinct components (the corpus
/// uses 6-10; the paper's base chain has 3). Per-component parameters are
/// drawn from rng within paper-realistic bounds.
ServiceCatalog make_long_chain_catalog(std::size_t length, util::Rng& rng);

/// Multi-tenant mix: `num_services` services of 2-5 components each over a
/// shared pool of `num_components` components.
ServiceCatalog make_multi_tenant_catalog(std::size_t num_services, std::size_t num_components,
                                         util::Rng& rng);

// ---------------------------------------------------------------------------
// The seeded corpus library
// ---------------------------------------------------------------------------

/// One named entry of the library.
struct CorpusEntryInfo {
  std::string name;    ///< e.g. "ft_k4_steady", loaded as "corpus:ft_k4_steady"
  std::uint64_t seed;  ///< the one Rng seed every draw derives from
  std::string family;  ///< "fat_tree" or "wan"
  std::string load;    ///< "steady", "diurnal", "flash", or "storm"
};

class CorpusGenerator {
 public:
  /// The library: ~12 named entries spanning both topology families, all
  /// four load programs, long chains, and a multi-tenant mix.
  static const std::vector<CorpusEntryInfo>& library();

  /// Deterministically generate a library entry by name. Throws
  /// std::invalid_argument for unknown names.
  static Scenario make(const std::string& name);
};

}  // namespace dosc::sim
