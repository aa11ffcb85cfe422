#include "net/async_gossip.h"

#include <utility>

#include "gossip/gossip_state.h"

namespace dgt {

// --- Scalar ------------------------------------------------------------

AsyncPushSum::AsyncPushSum(const Graph* graph, AsyncGossipOptions options)
    : graph_(graph), options_(options) {}

Result<AsyncGossipResult> AsyncPushSum::Run(const std::vector<double>& y0,
                                            const std::vector<double>& g0) {
  const uint32_t n = graph_->num_nodes();
  DGT_RETURN_IF_ERROR(ValidateScalarInputs(n, y0, g0, {}));
  std::vector<ScalarGossipPolicy::Value> init(n);
  for (uint32_t i = 0; i < n; ++i) init[i] = {y0[i], g0[i], 0.0};

  AsyncEventEngine<ScalarGossipPolicy> engine(graph_, options_);
  DGT_ASSIGN_OR_RETURN(auto out, engine.Run(std::move(init)));

  AsyncGossipResult res;
  static_cast<AsyncEngineStats&>(res) = out.stats;
  res.ratios.resize(n);
  res.values.resize(n);
  res.weights.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    res.values[i] = out.values[i].y;
    res.weights[i] = out.values[i].g;
    res.ratios[i] = ScalarGossipPolicy::TakeSnapshot(out.values[i]);
  }
  return res;
}

// --- Vector --------------------------------------------------------------

AsyncSparsePushSum::AsyncSparsePushSum(const Graph* graph,
                                       AsyncGossipOptions options)
    : graph_(graph), options_(options) {}

Result<AsyncSparseGossipResult> AsyncSparsePushSum::Run(
    std::vector<SparseVectorRow> init, bool use_count) {
  DGT_RETURN_IF_ERROR(ValidateSparseRows(graph_->num_nodes(), init, use_count));

  AsyncEventEngine<VectorGossipPolicy> engine(graph_, options_);
  return engine.Run(VectorGossipPolicy::FromSparse(std::move(init), use_count));
}

}  // namespace dgt
