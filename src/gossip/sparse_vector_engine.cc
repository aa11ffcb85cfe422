#include "gossip/sparse_vector_engine.h"

#include <cassert>
#include <utility>

#include "common/thread_pool.h"
#include "gossip/push_sum.h"

namespace dgt {

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

  VectorGossipPolicy policy(init, use_count);
  std::vector<VectorGossipPolicy::Value> state =
      VectorGossipPolicy::FromSparse(std::move(init), use_count);
  ThreadPool pool(options_.num_threads);
  DGT_ASSIGN_OR_RETURN(
      PushSumStats stats,
      RunPushSum(*graph_, options_, push_counts_, policy, state, pool));

  SparseVectorGossipResult res;
  static_cast<PushSumStats&>(res) = stats;
  res.rows = std::move(state);
  res.peak_state_nonzeros = policy.peak_state_nonzeros();
  return res;
}

}  // namespace dgt
