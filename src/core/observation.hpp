// Observation adapter: the POMDP observation space of Sec. IV-B1.
//
// Each agent only sees local information about the incoming flow, its own
// node, and its direct neighbours:
//   O = < F_f, R^L_v, R^V_v, D_{v,f}, X_v >
// All parts are normalised to [-1, 1] and padded with dummy neighbours
// (value -1) up to the network degree Delta_G, so every agent in every
// network of equal degree shares one observation layout — the property that
// lets a single policy be trained centrally and deployed at every node.
//
// Layout (size 4 * Delta_G + 4):
//   [0]                       p_hat: progress within the service chain
//   [1]                       tau_hat: remaining deadline / deadline
//   [2            .. 2+D)     R^L: free capacity of outgoing links - lambda
//   [2+D          .. 3+2D)    R^V: free node capacity - r_c(lambda),
//                             self first, then neighbours
//   [3+2D         .. 3+3D)    D: deadline-relative shortest-path slack to
//                             the egress via each neighbour
//   [3+3D         .. 4+4D)    X: instance of c_f available, self first
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"

namespace dosc::core {

/// Observation vector length for a network with the given degree.
constexpr std::size_t observation_dim(std::size_t max_degree) noexcept {
  return 4 * max_degree + 4;
}

/// Value used for padded (non-existing) dummy neighbours.
inline constexpr double kDummy = -1.0;

/// Ablation switch: disabled parts are zeroed out (the layout and size stay
/// fixed so the same network architecture is trained). Used by
/// bench_ablation to quantify what each observation component contributes.
struct ObservationMask {
  bool flow_attrs = true;  ///< F_f
  bool link_util = true;   ///< R^L
  bool node_util = true;   ///< R^V
  bool delays = true;      ///< D_{v,f}
  bool instances = true;   ///< X_v

  friend bool operator==(const ObservationMask&, const ObservationMask&) = default;
};

class ObservationBuilder {
 public:
  /// `max_degree` fixes the padded layout; it must be >= the degree of the
  /// network the builder is used on (normally exactly Delta_G).
  explicit ObservationBuilder(std::size_t max_degree, ObservationMask mask = {});

  std::size_t dim() const noexcept { return observation_dim(max_degree_); }
  std::size_t max_degree() const noexcept { return max_degree_; }

  /// Precompute flat per-node tables for this simulator episode — CSR
  /// neighbour/link lists, the (neighbour position, egress) → delay_via
  /// slice of the shortest-path matrix, and the capacity normalisers — so
  /// build() is pure array indexing with no graph traversal or per-call
  /// max-scans. Topology and capacities are frozen for a Simulator's
  /// lifetime (failures only gate the free-capacity accessors), so binding
  /// once in Coordinator::on_episode_start is sound. build() falls back to
  /// the generic path when unbound or handed a different Simulator —
  /// identified by Simulator::instance_id(), never by address, since
  /// capacities are re-randomised per episode and a fresh Simulator can
  /// reuse a destroyed one's address — and the two paths are bit-identical.
  void bind(const sim::Simulator& sim);
  void unbind() noexcept { bound_id_ = 0; }
  bool bound() const noexcept { return bound_id_ != 0; }

  /// Build the observation of the agent at `node` for the arriving `flow`.
  /// Reuses and returns an internal buffer; copy it if it must outlive the
  /// next call (not thread-safe; use one builder per thread).
  const std::vector<double>& build(const sim::Simulator& sim, const sim::Flow& flow,
                                   net::NodeId node);

 private:
  const std::vector<double>& build_generic(const sim::Simulator& sim, const sim::Flow& flow,
                                           net::NodeId node);
  const std::vector<double>& build_fast(const sim::Simulator& sim, const sim::Flow& flow,
                                        net::NodeId node);
  void apply_mask() noexcept;

  std::size_t max_degree_;
  ObservationMask mask_;
  std::vector<double> buffer_;

  // --- per-episode tables (valid for the bound Simulator instance) ---
  std::uint64_t bound_id_ = 0;  ///< Simulator::instance_id(), 0 = unbound
  std::size_t num_nodes_ = 0;
  std::vector<std::uint32_t> row_begin_;     ///< CSR offsets, num_nodes_+1
  std::vector<net::NodeId> nb_node_;         ///< neighbour node per CSR slot
  std::vector<net::LinkId> nb_link_;         ///< connecting link per CSR slot
  std::vector<double> nb_delay_via_;         ///< [csr slot * V + egress] = delay_via
  std::vector<double> node_max_link_cap_;    ///< R^L normaliser per node
  double max_node_cap_ = 1.0;                ///< R^V normaliser
};

}  // namespace dosc::core
