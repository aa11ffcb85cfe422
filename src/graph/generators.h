// Auxiliary graph generators: baselines for gossip experiments and fixtures
// for tests. The PA generator (the paper's topology) lives in
// pa_generator.h.

#ifndef DGT_GRAPH_GENERATORS_H_
#define DGT_GRAPH_GENERATORS_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"

namespace dgt {

// K_n. GossipTrust [17] and Kempe et al. [21] analyse gossip on complete
// graphs; used as the classical baseline topology.
Result<Graph> GenerateComplete(uint32_t num_nodes);

// Cycle 0-1-...-(n-1)-0. Worst-case diameter for diffusion tests.
Result<Graph> GenerateRing(uint32_t num_nodes);

// Star with node 0 as hub: the extreme "power node" topology.
Result<Graph> GenerateStar(uint32_t num_nodes);

// Erdős–Rényi G(n, p). May be disconnected; callers that need
// connectivity should check with IsConnected().
Result<Graph> GenerateErdosRenyi(uint32_t num_nodes, double p, uint64_t seed);

// The 10-node example network of the paper (Fig. 2 / Table 1): degree
// sequence (4,4,7,3,3,2,2,2,3,2) realized deterministically. Node ids are
// 0-based (paper numbers them 1..10).
Result<Graph> GeneratePaperExampleNetwork();

}  // namespace dgt

#endif  // DGT_GRAPH_GENERATORS_H_
