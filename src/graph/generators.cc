#include "graph/generators.h"

#include "common/rng.h"

namespace dgt {

Result<Graph> GenerateComplete(uint32_t num_nodes) {
  if (num_nodes < 2) {
    return Status::InvalidArgument("complete graph needs >= 2 nodes");
  }
  Graph g(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = u + 1; v < num_nodes; ++v) {
      DGT_RETURN_IF_ERROR(g.AddEdge(u, v));
    }
  }
  return g;
}

Result<Graph> GenerateRing(uint32_t num_nodes) {
  if (num_nodes < 3) {
    return Status::InvalidArgument("ring needs >= 3 nodes");
  }
  Graph g(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    DGT_RETURN_IF_ERROR(g.AddEdge(u, (u + 1) % num_nodes));
  }
  return g;
}

Result<Graph> GenerateStar(uint32_t num_nodes) {
  if (num_nodes < 2) {
    return Status::InvalidArgument("star needs >= 2 nodes");
  }
  Graph g(num_nodes);
  for (NodeId u = 1; u < num_nodes; ++u) {
    DGT_RETURN_IF_ERROR(g.AddEdge(0, u));
  }
  return g;
}

Result<Graph> GenerateErdosRenyi(uint32_t num_nodes, double p, uint64_t seed) {
  if (num_nodes < 2) {
    return Status::InvalidArgument("G(n,p) needs >= 2 nodes");
  }
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("p must be in [0,1]");
  }
  Graph g(num_nodes);
  Rng rng(seed);
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (NodeId v = u + 1; v < num_nodes; ++v) {
      if (rng.NextBernoulli(p)) {
        DGT_RETURN_IF_ERROR(g.AddEdge(u, v));
      }
    }
  }
  return g;
}

Result<Graph> GeneratePaperExampleNetwork() {
  // Table 1 of the paper gives degrees (4,4,7,3,3,2,2,2,3,2) for nodes
  // 1..10 and differential push counts k = (1,1,3,1,1,1,1,1,1,1). The exact
  // adjacency of Fig. 2 is not published; this realization (0-based ids)
  // reproduces both the degree sequence and the k vector: the hub (node 3
  // in the paper, id 2 here) neighbours the seven low-degree nodes, so its
  // average neighbour degree is 17/7 ~= 2.43 and k = round(7/2.43) = 3.
  return Graph::FromEdges(10, {{2, 3},
                               {2, 4},
                               {2, 5},
                               {2, 6},
                               {2, 7},
                               {2, 8},
                               {2, 9},
                               {0, 1},
                               {0, 3},
                               {0, 4},
                               {0, 8},
                               {1, 3},
                               {1, 4},
                               {1, 8},
                               {5, 6},
                               {7, 9}});
}

}  // namespace dgt
