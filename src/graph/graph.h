// Undirected simple graph used as the P2P overlay topology.
//
// Nodes are dense ids [0, num_nodes). The graph is immutable-by-convention
// after construction by a generator; AddEdge is exposed for builders and
// tests. No self-loops, no parallel edges.

#ifndef DGT_GRAPH_GRAPH_H_
#define DGT_GRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dgt {

using NodeId = uint32_t;

// How the differential push count k_i = deg/avg_neighbor_deg is mapped to
// an integer. The paper rounds to nearest; floor and ceil are provided for
// the ablation study (DESIGN.md section 6).
enum class KRounding {
  kFloor,
  kRound,
  kCeil,
};

class Graph {
 public:
  // Creates an edgeless graph with `num_nodes` nodes.
  explicit Graph(uint32_t num_nodes);

  // Builds a graph from an explicit edge list. Fails with InvalidArgument
  // on out-of-range endpoints, self-loops, or duplicate edges.
  static Result<Graph> FromEdges(
      uint32_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges);

  uint32_t num_nodes() const { return static_cast<uint32_t>(adj_.size()); }
  uint64_t num_edges() const { return num_edges_; }

  // Adds undirected edge {u, v}. Fails on self-loop, out-of-range node, or
  // existing edge.
  Status AddEdge(NodeId u, NodeId v);

  bool HasEdge(NodeId u, NodeId v) const;

  uint32_t Degree(NodeId u) const {
    return static_cast<uint32_t>(adj_[u].size());
  }

  // Neighbours of u, in insertion order.
  const std::vector<NodeId>& Neighbors(NodeId u) const { return adj_[u]; }

  // Every node's neighbour list, indexed by node.
  const std::vector<std::vector<NodeId>>& Adjacency() const { return adj_; }

  // The differential-gossip push count for node u:
  //   k_u = round(deg(u) / avg_neighbor_deg(u)) if the ratio >= 1, else 1.
  // Isolated nodes get k = 1 by convention (they only push to themselves).
  // `rounding` selects the integer mapping (paper: round to nearest).
  uint32_t DifferentialPushCount(NodeId u,
                                 KRounding rounding = KRounding::kRound) const;

  // All edges as (u, v) with u < v, sorted.
  std::vector<std::pair<NodeId, NodeId>> Edges() const;

  // Sum of degrees == 2 * num_edges (sanity invariant).
  uint64_t DegreeSum() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
  uint64_t num_edges_ = 0;
};

// Graph::DifferentialPushCount over explicit neighbour lists (adj[u]
// lists u's neighbours), for overlays that change at runtime.
uint32_t DifferentialPushCount(const std::vector<std::vector<NodeId>>& adj,
                               NodeId u, KRounding rounding);

}  // namespace dgt

#endif  // DGT_GRAPH_GRAPH_H_
