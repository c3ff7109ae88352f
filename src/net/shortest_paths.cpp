#include "net/shortest_paths.hpp"

#include <algorithm>
#include <limits>
#include <queue>

namespace dosc::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

ShortestPaths::ShortestPaths(const Network& network)
    : network_(network), n_(network.num_nodes()) {
  dist_.assign(n_ * n_, kInf);
  next_hop_.assign(n_ * n_, kInvalidNode);

  // Dijkstra from every source. For each target we also record the first
  // hop, derived from the predecessor chain.
  for (NodeId src = 0; src < n_; ++src) {
    std::vector<double> dist(n_, kInf);
    std::vector<NodeId> pred(n_, kInvalidNode);
    std::vector<char> settled(n_, 0);
    dist[src] = 0.0;
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    queue.push({0.0, src});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (settled[u]) continue;
      settled[u] = 1;
      for (const Neighbor& nb : network_.neighbors(u)) {
        // A settled node is never relaxed again: with a zero-delay link (or
        // one so long that shorter delays vanish when added to it) it could
        // tie, and rewriting its predecessor — even the source's — would
        // close a predecessor cycle. Every predecessor is settled before
        // the node it leads to, so each walk-back below ends at src.
        if (settled[nb.node]) continue;
        const double nd = d + network_.link(nb.link).delay;
        // Strict improvement, or equal-cost tie broken towards the path
        // whose predecessor has the lower id — keeps next hops
        // deterministic across platforms.
        if (nd < dist[nb.node] || (nd == dist[nb.node] && u < pred[nb.node])) {
          dist[nb.node] = nd;
          pred[nb.node] = u;
          queue.push({nd, nb.node});
        }
      }
    }
    for (NodeId dst = 0; dst < n_; ++dst) {
      dist_[index(src, dst)] = dist[dst];
      if (dst == src || dist[dst] == kInf) continue;
      // Walk back from dst to the node whose predecessor is src.
      NodeId hop = dst;
      while (pred[hop] != src) hop = pred[hop];
      next_hop_[index(src, dst)] = hop;
      if (dist[dst] > diameter_) diameter_ = dist[dst];
    }
  }
}

std::vector<NodeId> ShortestPaths::path(NodeId u, NodeId v) const {
  std::vector<NodeId> nodes;
  if (dist_.at(index(u, v)) == kInf) return nodes;
  nodes.push_back(u);
  NodeId cur = u;
  while (cur != v) {
    cur = next_hop_.at(index(cur, v));
    nodes.push_back(cur);
  }
  return nodes;
}

double ShortestPaths::delay_via(NodeId /*v*/, const Neighbor& via, NodeId egress) const {
  return network_.link(via.link).delay + delay(via.node, egress);
}

}  // namespace dosc::net
