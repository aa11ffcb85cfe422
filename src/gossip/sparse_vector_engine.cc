#include "gossip/sparse_vector_engine.h"

#include <cassert>

#include "common/thread_pool.h"
#include "gossip/push_sum.h"

namespace dgt {

SparseVectorGossipResult::Row EstimateRow(const SparseVectorRow& row,
                                          bool use_count) {
  size_t kept = 0;
  for (size_t k = 0; k < row.cols.size(); ++k) {
    if (row.g[k] != 0.0) ++kept;
  }
  SparseVectorGossipResult::Row out;
  out.cols.reserve(kept);
  out.estimates.reserve(kept);
  if (use_count) out.count_estimates.reserve(kept);
  for (size_t k = 0; k < row.cols.size(); ++k) {
    if (row.g[k] == 0.0) continue;  // sentinel, i.e. absent
    out.cols.push_back(row.cols[k]);
    out.estimates.push_back(row.y[k] / row.g[k]);
    if (use_count) out.count_estimates.push_back(row.c[k] / row.g[k]);
  }
  return out;
}

SparseVectorPushSum::SparseVectorPushSum(const Graph* graph,
                                         GossipOptions options)
    : graph_(graph), options_(options) {
  assert(graph_ != nullptr);
  push_counts_ = PushCounts(graph_->Adjacency(), options_.strategy,
                            options_.k_rounding);
}

Result<SparseVectorGossipResult> SparseVectorPushSum::Run(
    std::vector<SparseVectorRow> init, bool use_count) {
  const uint32_t n = graph_->num_nodes();
  DGT_RETURN_IF_ERROR(ValidateSparseRows(n, init, use_count));

  std::vector<SparseVectorRow>& state = init;
  SparseVectorGossipPolicy policy(state, use_count);
  ThreadPool pool(options_.num_threads);
  DGT_ASSIGN_OR_RETURN(
      PushSumStats stats,
      RunPushSum(*graph_, options_, push_counts_, policy, state, pool));

  SparseVectorGossipResult res;
  static_cast<PushSumStats&>(res) = stats;
  res.peak_state_nonzeros = policy.peak_state_nonzeros();

  res.rows.resize(n);
  pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      res.rows[i] = EstimateRow(state[i], use_count);
      // Release the state row eagerly so peak memory is one state row plus
      // the accumulated result, not both in full.
      state[i] = SparseVectorRow();
    }
  });
  return res;
}

}  // namespace dgt
