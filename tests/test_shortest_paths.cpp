#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "net/shortest_paths.hpp"
#include "net/topology_io.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace dosc::net {
namespace {

TEST(ShortestPaths, LineDistances) {
  const Network n = test::line3(10.0, 2.0);
  const ShortestPaths sp(n);
  EXPECT_DOUBLE_EQ(sp.delay(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(sp.delay(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(sp.delay(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(sp.delay(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(sp.diameter(), 4.0);
}

TEST(ShortestPaths, NextHopAndPath) {
  const Network n = test::line3();
  const ShortestPaths sp(n);
  EXPECT_EQ(sp.next_hop(0, 2), 1u);
  EXPECT_EQ(sp.next_hop(1, 2), 2u);
  EXPECT_EQ(sp.next_hop(0, 0), kInvalidNode);
  const auto path = sp.path(0, 2);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 2u);
}

TEST(ShortestPaths, PicksCheaperRouteInDiamond) {
  // A-B-D costs 4, A-C-D costs 6.
  const Network n = test::diamond();
  const ShortestPaths sp(n);
  EXPECT_DOUBLE_EQ(sp.delay(0, 3), 4.0);
  EXPECT_EQ(sp.next_hop(0, 3), 1u);
}

TEST(ShortestPaths, EqualCostTieBreakDeterministic) {
  // Two equal-cost 2-hop routes A->D; the tie must break to the lower id.
  NetworkBuilder b("tie");
  for (int i = 0; i < 4; ++i) b.add_node(std::string("n").append(std::to_string(i)));
  b.add_link(0, 1, 1.0, 1.0);
  b.add_link(1, 3, 1.0, 1.0);
  b.add_link(0, 2, 1.0, 1.0);
  b.add_link(2, 3, 1.0, 1.0);
  const Network n = std::move(b).build();
  const ShortestPaths sp(n);
  EXPECT_DOUBLE_EQ(sp.delay(0, 3), 2.0);
  EXPECT_EQ(sp.next_hop(0, 3), 1u);
}

TEST(ShortestPaths, UnreachableIsInfinite) {
  NetworkBuilder b("disc");
  for (int i = 0; i < 4; ++i) b.add_node(std::string("n").append(std::to_string(i)));
  b.add_link(0, 1, 1.0, 1.0);
  b.add_link(2, 3, 1.0, 1.0);
  const Network n = std::move(b).build();
  const ShortestPaths sp(n);
  EXPECT_EQ(sp.delay(0, 2), std::numeric_limits<double>::infinity());
  EXPECT_EQ(sp.next_hop(0, 2), kInvalidNode);
  EXPECT_TRUE(sp.path(0, 2).empty());
  // Diameter ignores unreachable pairs.
  EXPECT_DOUBLE_EQ(sp.diameter(), 1.0);
}

TEST(ShortestPaths, DelayVia) {
  const Network n = test::diamond();
  const ShortestPaths sp(n);
  // From A via neighbour B to D: link(A,B)=2 + delay(B,D)=2.
  const auto& neighbors = n.neighbors(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].node, 1u);
  EXPECT_DOUBLE_EQ(sp.delay_via(0, neighbors[0], 3), 4.0);
  EXPECT_DOUBLE_EQ(sp.delay_via(0, neighbors[1], 3), 6.0);
  // Going "backwards" via B towards A itself: 2 + 0 ... from node 3.
  const auto& nb3 = n.neighbors(3);
  EXPECT_DOUBLE_EQ(sp.delay_via(3, nb3[0], 1), 2.0);
}

TEST(ShortestPaths, SymmetricOnUndirectedGraph) {
  const Network n = test::diamond();
  const ShortestPaths sp(n);
  for (NodeId u = 0; u < n.num_nodes(); ++u) {
    for (NodeId v = 0; v < n.num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(sp.delay(u, v), sp.delay(v, u));
    }
  }
}

TEST(ShortestPaths, PathDelaysAreConsistent) {
  // Property: walking the reported path and summing link delays must give
  // exactly the reported distance.
  const Network n = test::diamond();
  const ShortestPaths sp(n);
  for (NodeId u = 0; u < n.num_nodes(); ++u) {
    for (NodeId v = 0; v < n.num_nodes(); ++v) {
      const auto path = sp.path(u, v);
      if (u == v) continue;
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto link = n.find_link(path[i], path[i + 1]);
        ASSERT_TRUE(link.has_value());
        sum += n.link(*link).delay;
      }
      EXPECT_DOUBLE_EQ(sum, sp.delay(u, v));
    }
  }
}

/// The network of corpus entry `entry` with link `link`'s delay replaced.
Network with_link_delay(const std::string& entry, std::size_t link, double delay) {
  util::Json doc = sim::load_scenario("corpus:" + entry).to_json().at("network");
  doc.as_object()["links"].as_array().at(link).as_object()["delay"] = util::Json(delay);
  return network_from_json(doc);
}

/// Every next_hop walk must reach its target in fewer than n hops.
void expect_next_hop_walks_terminate(const Network& network, const std::string& label) {
  const ShortestPaths sp(network);
  const std::size_t n = network.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      NodeId cur = u;
      std::size_t hops = 0;
      while (cur != v && cur != kInvalidNode && hops < n) {
        cur = sp.next_hop(cur, v);
        ++hops;
      }
      ASSERT_EQ(cur, v) << label << ": walk " << u << " -> " << v << " lost after " << hops
                        << " hops";
    }
  }
}

TEST(ShortestPaths, ZeroAndVanishingDelaysKeepNextHopsAcyclic) {
  // An equal-cost tie used to rewrite the predecessor of a node already
  // settled — the source included — so a zero-delay link closed a
  // predecessor cycle and the constructor's walk-back never returned. A
  // 2^64 ms link does the same: the small delays vanish when added to it.
  const std::size_t links = sim::load_scenario("corpus:ft_k4_steady").network().num_links();
  ASSERT_EQ(links, 48u);
  for (std::size_t link = 0; link < links; ++link) {
    expect_next_hop_walks_terminate(with_link_delay("ft_k4_steady", link, 0.0),
                                    "ft_k4_steady link " + std::to_string(link) + " delay 0");
  }
  expect_next_hop_walks_terminate(with_link_delay("ft_k4_chain8", 10, 18446744073709551616.0),
                                  "ft_k4_chain8 link 10 delay 2^64");
}

}  // namespace
}  // namespace dosc::net
