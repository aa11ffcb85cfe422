// TTL-limited query flooding — the paper's resource discovery (§4):
// "Whenever a node needs a resource, it asks from its neighbours; if they
// have the resource, the node gets the answer of its query. If neighbours
// do not have it, they forward the query to their neighbours and so on."
//
// Gnutella-style semantics: a query fans out hop by hop with duplicate
// suppression; every holder reached within the TTL answers. Message cost
// is one forward per traversed edge direction plus one response per hit
// routed back along the discovery path.

#ifndef DGT_P2P_QUERY_FLOOD_H_
#define DGT_P2P_QUERY_FLOOD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace dgt {

struct QueryResult {
  // Holders discovered, in hop order (nearest first; ties by node id).
  std::vector<NodeId> providers;
  // Hop distance for each provider (parallel to `providers`).
  std::vector<uint32_t> hops;
  // Query forwards transmitted (one per edge direction traversed).
  uint64_t query_messages = 0;
  // Responses routed back (hop distance per hit: one message per hop).
  uint64_t response_messages = 0;
  // Nodes the flood reached (including the origin).
  uint32_t nodes_reached = 0;
};

// Floods from `origin` with the given TTL. Every node except the origin
// holds the resource ("data of interest is always available", §3), so
// the providers are all nodes within ttl hops. Fails with OutOfRange on
// a bad origin or InvalidArgument on ttl == 0.
Result<QueryResult> FloodQueryAllHolders(const Graph& graph, NodeId origin,
                                         uint32_t ttl);

}  // namespace dgt

#endif  // DGT_P2P_QUERY_FLOOD_H_
