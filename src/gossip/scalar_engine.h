// ScalarPushSum: synchronous differential push-sum gossip for one scalar
// aggregate (the machinery of the paper's Algorithm 1 / 2).
//
// Every node i holds a gossip pair (y_i, g_i) and an optional count
// channel c_i. Each step it splits all channels into k_i + 1 equal shares,
// keeps one, and pushes one to each of k_i randomly chosen neighbours
// (k_i per PushStrategy). The ratio y_i/g_i converges to
// sum(y0)/sum(g0); with g0 one-hot this estimates the sum, with g0 = 1 on
// a subset it estimates the subset average.
//
// Termination follows the paper's protocol: a node announces convergence
// to its neighbours once its ratio moved by <= xi in a step in which it
// heard from somebody else (|S| > 1); it stops once itself and all its
// neighbours have announced. The run ends when every node has stopped.
//
// A front-end over RunPushSum (gossip/push_sum.h) with the scalar value
// policy (gossip/gossip_state.h): it checks inputs and assembles results.

#ifndef DGT_GOSSIP_SCALAR_ENGINE_H_
#define DGT_GOSSIP_SCALAR_ENGINE_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "gossip/options.h"
#include "graph/graph.h"

namespace dgt {

class ScalarPushSum {
 public:
  // `graph` must outlive the engine. Disconnected graphs are allowed; each
  // component converges to its own aggregate.
  ScalarPushSum(const Graph* graph, GossipOptions options);

  // Runs to convergence (or options.max_steps). y0/g0 must have
  // num_nodes entries; c0 may be empty (count channel disabled) or
  // num_nodes entries. Fails with InvalidArgument on size mismatch, a
  // non-finite value, negative g0, or an xi that is not finite and
  // positive.
  Result<GossipResult> Run(const std::vector<double>& y0,
                           const std::vector<double>& g0,
                           const std::vector<double>& c0 = {});

  // Per-node push counts under the configured strategy.
  const std::vector<uint32_t>& push_counts() const { return push_counts_; }

 private:
  const Graph* graph_;
  GossipOptions options_;
  std::vector<uint32_t> push_counts_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SCALAR_ENGINE_H_
