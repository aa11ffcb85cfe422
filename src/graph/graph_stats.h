// Topology metrics: maximum degree, power-law exponent fit and tail check
// (complementary CDF, Kolmogorov-Smirnov distance to the fitted law) and
// connected components. Used to validate that the PA generator produces
// the power-law overlays the paper assumes (Gnutella-like, alpha ~= 2.3).

#ifndef DGT_GRAPH_GRAPH_STATS_H_
#define DGT_GRAPH_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace dgt {

uint32_t MaxDegree(const Graph& g);

// Continuous MLE for the power-law exponent (Clauset et al.):
//   alpha = 1 + n / sum_i ln(d_i / (d_min - 0.5)),
// over nodes with degree >= d_min. Returns 0 if no such node.
double EstimatePowerLawExponent(const Graph& g, uint32_t d_min);

// Complementary CDF of an integer sample: ccdf[k] = P(X >= k) for
// k = 0..max(sample). Empty input yields an empty vector.
std::vector<double> ComplementaryCdf(const std::vector<uint32_t>& sample);

// Kolmogorov-Smirnov distance between the sample's CCDF (restricted to
// k >= k_min) and a pure power law P(X >= k) = (k / k_min)^(1 - alpha).
// Small distance = the tail is power-law-like. Fails with InvalidArgument
// if no sample point reaches k_min or alpha <= 1.
Result<double> PowerLawKsDistance(const std::vector<uint32_t>& sample,
                                  uint32_t k_min, double alpha);

// component[u] = id of u's connected component (0-based, by discovery
// order). Size of returned vector == num_nodes.
std::vector<uint32_t> ConnectedComponents(const Graph& g);

// True when every node shares node 0's component (graphs of 0 or 1 node
// included).
bool IsConnected(const Graph& g);

}  // namespace dgt

#endif  // DGT_GRAPH_GRAPH_STATS_H_
