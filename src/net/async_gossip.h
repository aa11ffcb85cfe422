// Event-driven push-sum gossip over the paper's section-3 link model —
// relaxing the "time is discrete" assumption (its assumption ii) to
// message-level asynchrony. Two front-ends over the same executor
// (net/async_engine.h), one per value policy (gossip/gossip_state.h):
//
//   AsyncPushSum        — scalar state (paper variants 1/2).
//   AsyncSparsePushSum  — one dense row per node, fed sparse rows and
//                         handing back the dense rows (variant 4 / GCLR
//                         at scale), the production path for
//                         event-driven reputation aggregation.
//
// Each node runs a local timer that fires every push_period (with
// per-firing jitter); on firing it splits its gossip state into k_i + 1
// shares, keeps one, and sends one to each of k_i random neighbours.
// Shares arrive after link latency, so mass is conserved only as
// node mass + in-flight mass (a property the tests verify). Convergence
// uses the same evidence-streak protocol as the synchronous engines,
// evaluated at each node's own firings; convergence announcements travel
// as messages too. All engines accept any AsyncGossipOptions::num_threads
// and return bit-for-bit identical results at every thread count.

#ifndef DGT_NET_ASYNC_GOSSIP_H_
#define DGT_NET_ASYNC_GOSSIP_H_

#include <vector>

#include "common/result.h"
#include "gossip/gossip_state.h"
#include "graph/graph.h"
#include "net/async_engine.h"

namespace dgt {

struct AsyncGossipResult : AsyncEngineStats {
  std::vector<double> ratios;   // final per-node estimate
  std::vector<double> values;   // final y (node-resident mass)
  std::vector<double> weights;  // final g
};

class AsyncPushSum {
 public:
  // `graph` must outlive the engine.
  AsyncPushSum(const Graph* graph, AsyncGossipOptions options);

  // Runs to convergence or options.max_time. y0/g0 must have num_nodes
  // finite entries, g0 non-negative.
  Result<AsyncGossipResult> Run(const std::vector<double>& y0,
                                const std::vector<double>& g0);

 private:
  const Graph* graph_;
  AsyncGossipOptions options_;
};

// `values` holds the final node-resident state, one dense row per node of
// N columns (y, g and, with use_count, c), read as
// SparseVectorGossipResult::rows.
using AsyncSparseGossipResult = AsyncEngineResult<VectorGossipPolicy>;

class AsyncSparsePushSum {
 public:
  AsyncSparsePushSum(const Graph* graph, AsyncGossipOptions options);

  // `init` as in SparseVectorPushSum::Run, checked by ValidateSparseRows.
  Result<AsyncSparseGossipResult> Run(std::vector<SparseVectorRow> init,
                                      bool use_count);

 private:
  const Graph* graph_;
  AsyncGossipOptions options_;
};

}  // namespace dgt

#endif  // DGT_NET_ASYNC_GOSSIP_H_
