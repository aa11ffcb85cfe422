#include "p2p/query_flood.h"

#include <deque>

namespace dgt {

Result<QueryResult> FloodQueryAllHolders(const Graph& graph, NodeId origin,
                                         uint32_t ttl) {
  const uint32_t n = graph.num_nodes();
  if (origin >= n) return Status::OutOfRange("origin out of range");
  if (ttl == 0) return Status::InvalidArgument("ttl must be >= 1");

  QueryResult res;
  std::vector<uint8_t> seen(n, 0);
  seen[origin] = 1;
  res.nodes_reached = 1;

  // BFS with per-hop accounting. Each node forwards the query to ALL its
  // neighbours (the flood); duplicate deliveries cost a message but are
  // not re-forwarded. Every newly reached node is a holder and answers.
  std::deque<std::pair<NodeId, uint32_t>> frontier{{origin, 0}};
  while (!frontier.empty()) {
    auto [u, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= ttl) continue;
    for (NodeId v : graph.Neighbors(u)) {
      ++res.query_messages;  // the forward is transmitted regardless
      if (seen[v]) continue;
      seen[v] = 1;
      ++res.nodes_reached;
      const uint32_t hops = depth + 1;
      res.providers.push_back(v);
      res.hops.push_back(hops);
      // The response travels back along the discovery path.
      res.response_messages += hops;
      frontier.emplace_back(v, hops);
    }
  }
  return res;
}

}  // namespace dgt
