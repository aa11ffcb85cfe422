#include "baselines/gossip_trust.h"

#include <utility>

#include "gossip/sparse_vector_engine.h"

namespace dgt {

Result<GossipTrustResult> AggregateGossipTrust(const Graph& graph,
                                               const TrustMatrix& trust,
                                               AggregationOptions options) {
  options.gossip.strategy = PushStrategy::kUniform;
  const uint32_t num = graph.num_nodes();
  if (num == 0 || trust.num_nodes() != num) {
    return Status::InvalidArgument("graph/trust node count mismatch");
  }

  // The paper's eq. (8) family: R_j = sum_i t_ij / N — every node carries
  // gossip weight 1 for every column, so the ratio converges to the mean
  // over ALL N nodes (strangers implicitly vote 0). Full rows, so every
  // column is present at every node.
  std::vector<SparseVectorRow> init(num);
  for (NodeId i = 0; i < num; ++i) {
    SparseVectorRow& row = init[i];
    row.cols.resize(num);
    row.y.assign(num, 0.0);
    row.g.assign(num, 1.0);
    for (NodeId j = 0; j < num; ++j) row.cols[j] = j;
    for (const auto& [j, t] : trust.Row(i)) row.y[j] = t;
  }
  SparseVectorPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(SparseVectorGossipResult run,
                       engine.Run(std::move(init), /*use_count=*/false));

  GossipTrustResult out;
  // A column without gossip weight reads as the sentinel. Each state row
  // is released once read, so the estimates take its place.
  out.estimates.resize(num);
  for (NodeId i = 0; i < num; ++i) {
    const VectorGossipPolicy::Value& row = run.rows[i];
    out.estimates[i].resize(num);
    for (NodeId j = 0; j < num; ++j) {
      out.estimates[i][j] = GossipRatio(row.y[j], row.g[j]);
    }
    run.rows[i] = VectorGossipPolicy::Value();
  }
  out.stats = GossipRunStats(run, run.peak_state_nonzeros);
  out.global.assign(num, 0.0);
  for (uint32_t j = 0; j < num; ++j) {
    double acc = 0.0;
    for (uint32_t i = 0; i < num; ++i) acc += out.estimates[i][j];
    out.global[j] = acc / static_cast<double>(num);
  }
  return out;
}

}  // namespace dgt
