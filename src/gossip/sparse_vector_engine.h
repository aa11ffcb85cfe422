// SparseVectorPushSum: the vector push-sum gossip (paper variants 3 and 4)
// with each node's state stored as a sparse row.
//
// Every node i holds one entry per target j it has mass for — a vector
// (y_ij, g_ij[, c_ij]) — and a push transmits the whole shared row with
// the sender's id attached, so the time complexity matches the scalar
// case while communication grows with the row size (paper, end of
// §4.1.2). Convergence uses the paper's eq. (7): node i's step counts as
// evidence when sum_j |ratio_ij(n) - ratio_ij(n-1)| <= N * xi, followed by
// the same announce/stop protocol as the scalar engine.
//
// Why sparse: dense length-N vectors need six N x N arrays (~120 GB at
// the paper's N = 50,000), but trust matrices are sparse (a node only
// holds direct trust in the few peers it transacted with), so early
// gossip state is sparse too; rows only fill in as mass mixes across the
// overlay. This engine's per-step cost is proportional to the nonzeros
// actually pushed, not to N per message, and its memory footprint tracks
// the live nonzero count.
//
// State layout: each node holds one SparseVectorRow (gossip/gossip_state.h)
// — CSR-style parallel arrays. The receive side merges all of a step's
// contributions with a k-way sorted-column walk (merge-on-receive), so
// incoming shares are combined without ever materialising a dense inbox.
// Absent columns contribute exact zeros to eq. (7)'s L1 test, so the
// results are bit-for-bit those of a dense-vector run; a dense reference
// policy in tests/ checks that (tests/gossip/sparse_vector_engine_test.cc).
//
// A front-end over RunPushSum (gossip/push_sum.h) with the sparse value
// policy: it checks inputs and assembles results.

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

  // Peak sum of per-row nonzeros across all steps — the engine's actual
  // working-set size (reported by the large-N benches).
  uint64_t peak_state_nonzeros = 0;
};

// A state row's estimates: its columns with gossip weight, each with y/g
// and, when `use_count`, c/g. Every sparse executor's final rows go
// through here.
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

  const std::vector<uint32_t>& push_counts() const { return push_counts_; }

 private:
  const Graph* graph_;
  GossipOptions options_;
  std::vector<uint32_t> push_counts_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_SPARSE_VECTOR_ENGINE_H_
