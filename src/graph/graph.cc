#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace dgt {

Graph::Graph(uint32_t num_nodes) : adj_(num_nodes) {}

Result<Graph> Graph::FromEdges(
    uint32_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g(num_nodes);
  for (const auto& [u, v] : edges) {
    DGT_RETURN_IF_ERROR(g.AddEdge(u, v));
  }
  return g;
}

Status Graph::AddEdge(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::OutOfRange("edge endpoint out of range: " +
                              std::to_string(u) + "-" + std::to_string(v));
  }
  if (u == v) {
    return Status::InvalidArgument("self-loop at node " + std::to_string(u));
  }
  if (HasEdge(u, v)) {
    return Status::AlreadyExists("duplicate edge " + std::to_string(u) + "-" +
                                 std::to_string(v));
  }
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
  return Status::OK();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  // Scan the smaller adjacency list.
  const auto& a = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  NodeId target = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), target) != a.end();
}

uint32_t Graph::DifferentialPushCount(NodeId u, KRounding rounding) const {
  return dgt::DifferentialPushCount(adj_, u, rounding);
}

uint32_t DifferentialPushCount(const std::vector<std::vector<NodeId>>& adj,
                               NodeId u, KRounding rounding) {
  const auto& nbrs = adj[u];
  if (nbrs.empty()) return 1;
  uint64_t sum = 0;
  for (NodeId v : nbrs) sum += adj[v].size();
  const double avg =
      static_cast<double>(sum) / static_cast<double>(nbrs.size());
  if (avg <= 0.0) return 1;
  double ratio = static_cast<double>(nbrs.size()) / avg;
  if (ratio < 1.0) return 1;
  switch (rounding) {
    case KRounding::kFloor:
      return static_cast<uint32_t>(std::floor(ratio));
    case KRounding::kCeil:
      return static_cast<uint32_t>(std::ceil(ratio));
    case KRounding::kRound:
      break;
  }
  return static_cast<uint32_t>(std::lround(ratio));
}

std::vector<std::pair<NodeId, NodeId>> Graph::Edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId v : adj_[u]) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Graph::DegreeSum() const {
  uint64_t sum = 0;
  for (const auto& nbrs : adj_) sum += nbrs.size();
  return sum;
}

}  // namespace dgt
