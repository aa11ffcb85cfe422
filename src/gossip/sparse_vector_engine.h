// SparseVectorPushSum: the vector push-sum gossip (paper variants 3 and 4)
// over sparse input rows.
//
// Every node i holds one entry per target j — a vector (y_ij, g_ij[,
// c_ij]) — and a push transmits the whole shared row with the sender's id
// attached, so the time complexity matches the scalar case while
// communication grows with the row size (paper, end of §4.1.2).
// Convergence uses the paper's eq. (7): node i's step counts as evidence
// when sum_j |ratio_ij(n) - ratio_ij(n-1)| <= N * xi, followed by the same
// announce/stop protocol as the scalar engine.
//
// Sparse in, dense inside: direct trust is sparse, so rows go in and come
// out sparse, but mass mixes across the overlay and the rows fill in.
// Variant 4 at N = 1,000 (perfbench's gclr_sync) peaks at 1,160,500
// nonzeros, about 1.16 N^2, and 91% of its merges read inboxes whose rows
// already held all N columns. So each node's state is one dense row
// (VectorGossipPolicy, gossip/gossip_state.h): 24 B per column with the
// count channel, against 28 B for a full sparse row with its column
// index; one copy of the state at the paper's N = 50,000 is ~60 GB. Each
// merge walks the N columns once (merge-on-receive), and released rows
// go to a pool that later merges reuse. The results are bit-for-bit
// those of the dense reference policy in tests/dense_vector_policy.h
// (tests/gossip/sparse_vector_engine_test.cc).
//
// A front-end over RunPushSum (gossip/push_sum.h): it checks inputs,
// converts the rows once each way and assembles results.

#ifndef DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
#define DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "gossip/gossip_state.h"
#include "gossip/options.h"
#include "graph/graph.h"

namespace dgt {

struct SparseVectorGossipResult : PushSumStats {
  // Per node: sorted columns where gossip weight arrived (g != 0), with
  // the final ratio y/g and count ratio c/g. Columns absent from a row
  // are at kRatioSentinel (no weight reached the node).
  struct Row {
    std::vector<uint32_t> cols;
    std::vector<double> estimates;
    std::vector<double> count_estimates;  // empty when count unused
  };
  std::vector<Row> rows;

  // Peak sum of per-row nonzero entries across all steps (reported by the
  // large-N benches). A count of entries, not bytes: each live state row
  // holds N columns.
  uint64_t peak_state_nonzeros = 0;
};

// A row's estimates: its columns with gossip weight, each with y/g and,
// when `use_count`, c/g. Every vector executor's final rows go through
// here.
SparseVectorGossipResult::Row EstimateRow(const SparseVectorRow& row,
                                          bool use_count);

class SparseVectorPushSum {
 public:
  SparseVectorPushSum(const Graph* graph, GossipOptions options);

  // `init` holds one row per node (exactly num_nodes rows), checked by
  // ValidateSparseRows: cols strictly increasing and in [0, num_nodes),
  // y/g parallel to cols, c parallel exactly when `use_count`, every value
  // finite and no negative gossip weight. Fails with InvalidArgument on
  // any violation or on an xi that is not finite and positive.
  Result<SparseVectorGossipResult> Run(std::vector<SparseVectorRow> init,
                                       bool use_count);

 private:
  const Graph* graph_;
  GossipOptions options_;
  std::vector<uint32_t> push_counts_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
