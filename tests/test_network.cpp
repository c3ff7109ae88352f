#include <gtest/gtest.h>

#include <filesystem>

#include "net/network.hpp"
#include "net/topology_io.hpp"
#include "test_helpers.hpp"

namespace dosc::net {
namespace {

TEST(NetworkBuilder, BuildsValidGraph) {
  NetworkBuilder b("t");
  const NodeId a = b.add_node("a", 1.0);
  const NodeId c = b.add_node("c", 2.0);
  const LinkId l = b.add_link(a, c, 3.0, 4.0);
  const Network n = std::move(b).build();
  EXPECT_EQ(n.num_nodes(), 2u);
  EXPECT_EQ(n.num_links(), 1u);
  EXPECT_EQ(n.link(l).delay, 3.0);
  EXPECT_EQ(n.link(l).capacity, 4.0);
  EXPECT_EQ(n.node(a).name, "a");
}

TEST(NetworkBuilder, RejectsSelfLoop) {
  NetworkBuilder b("t");
  const NodeId a = b.add_node("a");
  b.add_node("b");
  EXPECT_THROW(b.add_link(a, a, 1.0, 1.0), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsDuplicateLinkEitherDirection) {
  NetworkBuilder b("t");
  const NodeId a = b.add_node("a");
  const NodeId c = b.add_node("c");
  b.add_link(a, c, 1.0, 1.0);
  EXPECT_THROW(b.add_link(a, c, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_link(c, a, 1.0, 1.0), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsOutOfRangeEndpoint) {
  NetworkBuilder b("t");
  b.add_node("a");
  EXPECT_THROW(b.add_link(0, 5, 1.0, 1.0), std::invalid_argument);
}

TEST(Network, RejectsNegativeDelayOrCapacity) {
  std::vector<Node> nodes{{"a", 1, 0, 0}, {"b", 1, 0, 0}};
  EXPECT_THROW(Network("t", nodes, {{0, 1, -1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Network("t", nodes, {{0, 1, 1.0, -1.0}}), std::invalid_argument);
  EXPECT_THROW(Network("t", {}, {}), std::invalid_argument);
}

TEST(Network, NeighborsSortedAscending) {
  NetworkBuilder b("t");
  for (int i = 0; i < 5; ++i) b.add_node(std::string("n").append(std::to_string(i)));
  // Insert links out of order; adjacency must still be sorted by node id.
  b.add_link(2, 4, 1.0, 1.0);
  b.add_link(2, 0, 1.0, 1.0);
  b.add_link(2, 3, 1.0, 1.0);
  b.add_link(2, 1, 1.0, 1.0);
  const Network n = std::move(b).build();
  const auto& nb = n.neighbors(2);
  ASSERT_EQ(nb.size(), 4u);
  for (std::size_t i = 0; i + 1 < nb.size(); ++i) EXPECT_LT(nb[i].node, nb[i + 1].node);
  EXPECT_EQ(n.max_degree(), 4u);
  EXPECT_EQ(n.min_degree(), 1u);
  EXPECT_DOUBLE_EQ(n.avg_degree(), 8.0 / 5.0);
}

TEST(Network, FindLink) {
  const Network n = test::line3();
  EXPECT_TRUE(n.find_link(0, 1).has_value());
  EXPECT_TRUE(n.find_link(1, 0).has_value());
  EXPECT_FALSE(n.find_link(0, 2).has_value());
  EXPECT_FALSE(n.find_link(7, 0).has_value());
}

TEST(Network, Connectivity) {
  EXPECT_TRUE(test::line3().connected());
  NetworkBuilder b("disconnected");
  b.add_node("a");
  b.add_node("b");
  b.add_node("c");
  b.add_link(0, 1, 1.0, 1.0);
  EXPECT_FALSE(std::move(b).build().connected());
}

TEST(Network, RandomCapacitiesWithinRanges) {
  Network n = test::line3();
  util::Rng rng(42);
  n.assign_random_capacities(rng, 0.0, 2.0, 1.0, 5.0);
  for (const Node& node : n.nodes()) {
    EXPECT_GE(node.capacity, 0.0);
    EXPECT_LT(node.capacity, 2.0);
  }
  for (const Link& link : n.links()) {
    EXPECT_GE(link.capacity, 1.0);
    EXPECT_LT(link.capacity, 5.0);
  }
  double max_cap = 0.0;
  for (const Node& node : n.nodes()) max_cap = std::max(max_cap, node.capacity);
  EXPECT_DOUBLE_EQ(n.max_node_capacity(), max_cap);
}

TEST(Network, MaxNeighborLinkCapacity) {
  NetworkBuilder b("t");
  for (int i = 0; i < 3; ++i) b.add_node(std::string("n").append(std::to_string(i)));
  b.add_link(0, 1, 1.0, 2.0);
  b.add_link(0, 2, 1.0, 7.0);
  const Network n = std::move(b).build();
  EXPECT_DOUBLE_EQ(n.max_neighbor_link_capacity(0), 7.0);
  EXPECT_DOUBLE_EQ(n.max_neighbor_link_capacity(1), 2.0);
}

TEST(Network, SettersValidate) {
  Network n = test::line3();
  n.set_node_capacity(0, 3.5);
  EXPECT_DOUBLE_EQ(n.node(0).capacity, 3.5);
  EXPECT_DOUBLE_EQ(n.max_node_capacity(), 3.5);
  EXPECT_THROW(n.set_node_capacity(0, -1.0), std::invalid_argument);
  n.set_link_capacity(0, 9.0);
  EXPECT_DOUBLE_EQ(n.link(0).capacity, 9.0);
  EXPECT_THROW(n.set_link_capacity(0, -1.0), std::invalid_argument);
}

TEST(Network, NodeDistance) {
  const Node a{"a", 0, 0.0, 0.0};
  const Node b{"b", 0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(node_distance(a, b), 5.0);
}

TEST(TopologyIo, JsonRoundTrip) {
  Network n = test::diamond(4.0, 2.0);
  util::Rng rng(1);
  n.assign_random_capacities(rng, 0.5, 1.5, 1.0, 3.0);
  const Network back = network_from_json(to_json(n));
  EXPECT_EQ(back.name(), n.name());
  ASSERT_EQ(back.num_nodes(), n.num_nodes());
  ASSERT_EQ(back.num_links(), n.num_links());
  for (NodeId v = 0; v < n.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(back.node(v).capacity, n.node(v).capacity);
    EXPECT_EQ(back.node(v).name, n.node(v).name);
  }
  for (LinkId l = 0; l < n.num_links(); ++l) {
    EXPECT_DOUBLE_EQ(back.link(l).delay, n.link(l).delay);
    EXPECT_DOUBLE_EQ(back.link(l).capacity, n.link(l).capacity);
  }
}

TEST(TopologyIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dosc_net_test.json").string();
  save_network(test::line3(), path);
  const Network loaded = load_network(path);
  EXPECT_EQ(loaded.num_nodes(), 3u);
  EXPECT_EQ(loaded.num_links(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dosc::net
