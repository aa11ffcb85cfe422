// The paper's four reputation-aggregation algorithm variants (§4.1.2),
// built on the gossip engines:
//
//   1. AggregateGlobalSingle  — global reputation of one node j
//                               (Algorithm 1).
//   2. AggregateGclrSingle    — globally calibrated local reputation of one
//                               node j at every observer (Algorithm 2).
//   3. AggregateGlobalVector  — variant 3: global reputation of all nodes
//                               simultaneously.
//   4. AggregateGclrVector    — variant 4: GCLR of all nodes at all
//                               observers simultaneously.
//
// All variants run the differential push gossip by default; set
// options.gossip.strategy to kUniform to get the plain-push comparator.

#ifndef DGT_REPUTATION_AGGREGATION_H_
#define DGT_REPUTATION_AGGREGATION_H_

#include <vector>

#include "common/result.h"
#include "gossip/options.h"
#include "gossip/sparse_vector_engine.h"
#include "graph/graph.h"
#include "net/async_gossip.h"
#include "reputation/reference.h"
#include "trust/trust_matrix.h"
#include "trust/weights.h"

namespace dgt {

struct AggregationOptions {
  // gossip.num_threads also governs the aggregation layer's own
  // per-observer post-processing (yhat accumulation + output assembly);
  // like the engines, results are identical at every thread count.
  GossipOptions gossip;

  // Denominator population for GCLR (see reference.h). kOpinators matches
  // the algorithm boxes (the gossiped count channel).
  DenominatorMode denominator = DenominatorMode::kOpinators;

  // Weight parameters used to build every node's weight table (GCLR only).
  WeightParams weights;
};

struct GossipRunStats : PushSumStats {
  GossipRunStats() = default;
  GossipRunStats(const PushSumStats& run, uint64_t peak_nnz)
      : PushSumStats(run), peak_state_nonzeros(peak_nnz) {}

  // Peak live nonzeros of the sparse vector engine's state (the vector
  // variants and GossipTrust; 0 for the scalar variants). The large-N
  // benches report it.
  uint64_t peak_state_nonzeros = 0;
};

struct SingleAggregationResult {
  // estimates[i] = node i's estimate of the target's reputation.
  std::vector<double> estimates;
  GossipRunStats stats;
};

struct VectorAggregationResult {
  // estimates[i][j] = node i's estimate of node j's reputation.
  std::vector<std::vector<double>> estimates;
  GossipRunStats stats;
};

// Algorithm 1: every opinator contributes (t_ij, weight 1); the ratio
// converges to the average opinion over opinators.
Result<SingleAggregationResult> AggregateGlobalSingle(
    const Graph& graph, const TrustMatrix& trust, NodeId j,
    const AggregationOptions& options);

// Algorithm 2: sum-estimation gossip (one-hot weight at the target j) plus
// a count channel and neighbour-feedback weighting; observer I outputs
//   ( yhat_I + sum_est ) / ( sum_{k in NS_I}(w_Ik - 1) + count_est ).
Result<SingleAggregationResult> AggregateGclrSingle(
    const Graph& graph, const TrustMatrix& trust, NodeId j,
    const AggregationOptions& options);

// Variant 3: Algorithm 1 for all targets at once (vector gossip).
Result<VectorAggregationResult> AggregateGlobalVector(
    const Graph& graph, const TrustMatrix& trust,
    const AggregationOptions& options);

// Variant 4: Algorithm 2 for all targets at once. For target j the one-hot
// gossip weight sits at node j.
Result<VectorAggregationResult> AggregateGclrVector(
    const Graph& graph, const TrustMatrix& trust,
    const AggregationOptions& options);

// Variant 4's initial gossip state for the sparse engine: node i's sorted
// opinion row (y = t_ij, count = 1) with the one-hot weight g = 1 merged
// in at the diagonal. Used by AggregateGclrVector's sparse path; exposed
// so benchmarks and tests seed the engine exactly like production.
std::vector<SparseVectorRow> BuildGclrSparseInit(const TrustMatrix& trust);

// --- Event-driven aggregation (paper §3 network model) -----------------

struct AsyncAggregationOptions {
  // Event-driven engine knobs; gossip.num_threads also governs the
  // aggregation layer's per-observer post-processing, and — as with the
  // synchronous path — results are bit-for-bit identical at every thread
  // count.
  AsyncGossipOptions gossip;

  // Denominator population for GCLR (see reference.h).
  DenominatorMode denominator = DenominatorMode::kOpinators;

  // Weight parameters used to build every node's weight table.
  WeightParams weights;
};

struct AsyncVectorAggregationResult {
  // estimates[i][j] = node i's estimate of node j's reputation.
  std::vector<std::vector<double>> estimates;
  AsyncEngineStats stats;
};

// Variant 4 (GCLR of all nodes at all observers) over the event-driven
// engine: the same BuildGclrSparseInit seeding and yhat/denominator
// post-processing as AggregateGclrVector, but the gossip itself runs as
// timer-driven message exchange over the link model instead of
// synchronous rounds — the production path for asynchronous serving.
Result<AsyncVectorAggregationResult> AggregateGclrVectorAsync(
    const Graph& graph, const TrustMatrix& trust,
    const AsyncAggregationOptions& options);

}  // namespace dgt

#endif  // DGT_REPUTATION_AGGREGATION_H_
