#include "gossip/scalar_engine.h"

#include <cassert>
#include <utility>

#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/push_sum.h"

namespace dgt {

ScalarPushSum::ScalarPushSum(const Graph* graph, GossipOptions options)
    : graph_(graph), options_(options) {
  assert(graph_ != nullptr);
  push_counts_ = PushCounts(graph_->Adjacency(), options_.strategy,
                            options_.k_rounding);
}

Result<GossipResult> ScalarPushSum::Run(const std::vector<double>& y0,
                                        const std::vector<double>& g0,
                                        const std::vector<double>& c0) {
  const uint32_t n = graph_->num_nodes();
  DGT_RETURN_IF_ERROR(ValidateScalarInputs(n, y0, g0, c0));
  const bool use_count = !c0.empty();

  using Value = ScalarGossipPolicy::Value;
  std::vector<Value> state(n);
  for (NodeId i = 0; i < n; ++i) {
    state[i] = {y0[i], g0[i], use_count ? c0[i] : 0.0};
  }
  ScalarGossipPolicy policy(use_count);
  GossipResult res;
  auto record_trace = [&](const std::vector<Value>& s) {
    if (!options_.track_trace) return;
    std::vector<double> row(n);
    for (NodeId i = 0; i < n; ++i) row[i] = GossipRatio(s[i].y, s[i].g);
    res.trace.push_back(std::move(row));
  };

  ThreadPool pool(options_.num_threads);
  DGT_ASSIGN_OR_RETURN(PushSumStats stats,
                       RunPushSum(*graph_, options_, push_counts_, policy,
                                  state, pool, record_trace));
  static_cast<PushSumStats&>(res) = stats;
  res.ratios.resize(n);
  res.values.resize(n);
  res.weights.resize(n);
  res.counts.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    res.ratios[i] = GossipRatio(state[i].y, state[i].g);
    res.values[i] = state[i].y;
    res.weights[i] = state[i].g;
    res.counts[i] = state[i].c;
  }
  return res;
}

}  // namespace dgt
