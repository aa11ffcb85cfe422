#include "reputation/aggregation.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"

namespace dgt {

namespace {

Status ValidateInputs(const Graph& graph, const TrustMatrix& trust) {
  if (graph.num_nodes() != trust.num_nodes()) {
    return Status::InvalidArgument(
        "graph and trust matrix disagree on node count: " +
        std::to_string(graph.num_nodes()) + " vs " +
        std::to_string(trust.num_nodes()));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  return Status::OK();
}

// yhat_row[j] for observer i (see BuildNeighborhoodWeighting), accumulated
// sparsely over the rated nodes' opinion rows in ascending node order:
// O(|rated_i| * |row|) per observer.
void FillYhatRow(const TrustMatrix& trust, const WeightTable& table,
                 std::vector<double>* yhat_row) {
  std::fill(yhat_row->begin(), yhat_row->end(), 0.0);
  for (const auto& [k, w] : table.SortedEntries()) {
    const double excess = w - 1.0;
    if (excess == 0.0) continue;
    for (const auto& [j, t] : trust.Row(k)) (*yhat_row)[j] += excess * t;
  }
}

// yhat_I(j) = sum over I's neighbours k of (w_Ik - 1) * t_kj, and the
// matching denominator excess sum. The neighbour feedback reaching I is a
// pre-round push of direct-interaction values (paper Fig. 1); its message
// cost is one vector per edge direction, accounted by the caller.
struct NeighborhoodWeighting {
  std::vector<double> yhat;        // per observer, for the fixed target
  std::vector<double> excess_den;  // per observer
};

NeighborhoodWeighting BuildNeighborhoodWeighting(
    const Graph& graph, const TrustMatrix& trust,
    const std::vector<WeightTable>& tables, NodeId j) {
  // The weighting set is the observer's interaction set (the paper's
  // neighbourhood — "neighbourhood between two nodes is based upon the
  // interaction between them"); all other nodes carry weight exactly 1
  // and contribute nothing to either sum.
  const uint32_t n = graph.num_nodes();
  NeighborhoodWeighting out;
  out.yhat.assign(n, 0.0);
  out.excess_den.assign(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    double num = 0.0;
    for (const auto& [k, w] : tables[i].SortedEntries()) {
      num += (w - 1.0) * trust.Get(k, j);
    }
    out.yhat[i] = num;
    out.excess_den[i] = tables[i].TotalExcessWeight();
  }
  return out;
}

Result<std::vector<WeightTable>> BuildAllWeightTables(
    const TrustMatrix& trust, const WeightParams& params) {
  std::vector<WeightTable> tables;
  tables.reserve(trust.num_nodes());
  for (NodeId i = 0; i < trust.num_nodes(); ++i) {
    DGT_ASSIGN_OR_RETURN(WeightTable t, WeightTable::Build(trust, i, params));
    tables.push_back(std::move(t));
  }
  return tables;
}

// Variant 4's per-observer post-processing, shared by the synchronous and
// event-driven paths. Observer i's output for target j comes from its
// gossiped state row rows[i]: where g_ij != 0, the sum estimate y_ij/g_ij
// and the count estimate c_ij/g_ij. yhat_j is yhat_row[j], accumulated
// sparsely over the rated nodes' opinion rows (the observer's interaction
// set; everyone else has weight exactly 1): O(sum_i |rated_i| * |row|).
// Columns without gossip weight stay at 0. Observers are independent, so
// they shard across their own pool, each writing its own output row and
// freeing its state row; callers run this only after the engine has run.
std::vector<std::vector<double>> GclrObserverEstimates(
    const TrustMatrix& trust, const std::vector<WeightTable>& tables,
    std::vector<VectorGossipPolicy::Value> rows, DenominatorMode mode,
    uint32_t num_threads) {
  const uint32_t n = trust.num_nodes();
  std::vector<std::vector<double>> estimates(n);
  ThreadPool pool(num_threads);
  pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
    std::vector<double> yhat_row(n);
    for (size_t i = begin; i < end; ++i) {
      FillYhatRow(trust, tables[i], &yhat_row);
      const double excess_den = tables[i].TotalExcessWeight();
      const VectorGossipPolicy::Value& row = rows[i];
      estimates[i].assign(n, 0.0);
      for (NodeId j = 0; j < n; ++j) {
        if (row.g[j] == 0.0) continue;  // no gossip weight reached i
        double count_est = mode == DenominatorMode::kAllNodes
                               ? static_cast<double>(n)
                               : row.c[j] / row.g[j];
        double denominator = excess_den + count_est;
        if (denominator <= 0.0) continue;
        estimates[i][j] = (yhat_row[j] + row.y[j] / row.g[j]) / denominator;
      }
      rows[i] = VectorGossipPolicy::Value();
    }
  });
  return estimates;
}

}  // namespace

Result<SingleAggregationResult> AggregateGlobalSingle(
    const Graph& graph, const TrustMatrix& trust, NodeId j,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  if (j >= graph.num_nodes()) {
    return Status::OutOfRange("target node out of range");
  }

  std::vector<double> y0 = trust.DenseColumn(j);
  std::vector<double> g0 = trust.OpinionIndicatorColumn(j);

  ScalarPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(GossipResult run, engine.Run(y0, g0));

  SingleAggregationResult out;
  out.estimates = std::move(run.ratios);
  // Nodes that never received weight report the sentinel; map it to 0
  // ("no information") for reputation purposes.
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    if (run.weights[i] == 0.0) out.estimates[i] = 0.0;
  }
  out.stats = GossipRunStats(run, 0);
  return out;
}

Result<SingleAggregationResult> AggregateGclrSingle(
    const Graph& graph, const TrustMatrix& trust, NodeId j,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  const uint32_t n = graph.num_nodes();
  if (j >= n) return Status::OutOfRange("target node out of range");

  // Sum estimation: exactly one node starts with gossip weight 1. The
  // paper designates "node 1"; the target j itself is the natural
  // initiator.
  std::vector<double> y0 = trust.DenseColumn(j);
  std::vector<double> g0(n, 0.0);
  g0[j] = 1.0;
  std::vector<double> c0 = trust.OpinionIndicatorColumn(j);

  DGT_ASSIGN_OR_RETURN(std::vector<WeightTable> tables,
                       BuildAllWeightTables(trust, options.weights));
  NeighborhoodWeighting nw =
      BuildNeighborhoodWeighting(graph, trust, tables, j);

  ScalarPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(GossipResult run, engine.Run(y0, g0, c0));

  SingleAggregationResult out;
  out.estimates.assign(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    if (run.weights[i] == 0.0) continue;  // no gossip weight reached i
    double sum_est = run.values[i] / run.weights[i];
    double count_est = options.denominator == DenominatorMode::kAllNodes
                           ? static_cast<double>(n)
                           : run.counts[i] / run.weights[i];
    double denominator = nw.excess_den[i] + count_est;
    if (denominator <= 0.0) continue;
    out.estimates[i] = (nw.yhat[i] + sum_est) / denominator;
  }
  out.stats = GossipRunStats(run, 0);
  // Pre-round neighbour feedback pushes: each opinator sends its direct
  // feedback about j to all its neighbours.
  for (NodeId i = 0; i < n; ++i) {
    if (trust.HasOpinion(i, j)) out.stats.control_messages += graph.Degree(i);
  }
  return out;
}

Result<VectorAggregationResult> AggregateGlobalVector(
    const Graph& graph, const TrustMatrix& trust,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  const uint32_t n = graph.num_nodes();
  VectorAggregationResult out;

  std::vector<SparseVectorRow> init(n);
  for (NodeId i = 0; i < n; ++i) {
    const auto& row = trust.Row(i);
    init[i].cols.reserve(row.size());
    init[i].y.reserve(row.size());
    init[i].g.reserve(row.size());
    for (const auto& [j, t] : row) {
      init[i].cols.push_back(j);
      init[i].y.push_back(t);
      init[i].g.push_back(1.0);
    }
  }
  SparseVectorPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(SparseVectorGossipResult run,
                       engine.Run(std::move(init), /*use_count=*/false));
  // Release each state row once read, so the estimates take its place.
  out.estimates.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const VectorGossipPolicy::Value& row = run.rows[i];
    out.estimates[i].assign(n, 0.0);
    for (NodeId j = 0; j < n; ++j) {
      if (row.g[j] != 0.0) out.estimates[i][j] = row.y[j] / row.g[j];
    }
    run.rows[i] = VectorGossipPolicy::Value();
  }
  out.stats = GossipRunStats(run, run.peak_state_nonzeros);
  return out;
}

std::vector<SparseVectorRow> BuildGclrSparseInit(const TrustMatrix& trust) {
  const uint32_t n = trust.num_nodes();
  std::vector<SparseVectorRow> init(n);
  for (NodeId i = 0; i < n; ++i) {
    const auto& row = trust.Row(i);
    SparseVectorRow& r = init[i];
    r.cols.reserve(row.size() + 1);
    r.y.reserve(row.size() + 1);
    r.g.reserve(row.size() + 1);
    r.c.reserve(row.size() + 1);
    bool diagonal_placed = false;
    // For target j, node j itself holds the one-hot gossip weight; merge
    // that diagonal entry into i's sorted opinion row (t_ii cannot exist,
    // so the merge never collides).
    for (const auto& [j, t] : row) {
      if (!diagonal_placed && i < j) {
        r.cols.push_back(i);
        r.y.push_back(0.0);
        r.g.push_back(1.0);
        r.c.push_back(0.0);
        diagonal_placed = true;
      }
      r.cols.push_back(j);
      r.y.push_back(t);
      r.g.push_back(0.0);
      r.c.push_back(1.0);
    }
    if (!diagonal_placed) {
      r.cols.push_back(i);
      r.y.push_back(0.0);
      r.g.push_back(1.0);
      r.c.push_back(0.0);
    }
  }
  return init;
}

Result<AsyncVectorAggregationResult> AggregateGclrVectorAsync(
    const Graph& graph, const TrustMatrix& trust,
    const AsyncAggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  DGT_ASSIGN_OR_RETURN(std::vector<WeightTable> tables,
                       BuildAllWeightTables(trust, options.weights));

  std::vector<SparseVectorRow> init = BuildGclrSparseInit(trust);
  AsyncSparsePushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(AsyncSparseGossipResult run,
                       engine.Run(std::move(init), /*use_count=*/true));
  AsyncVectorAggregationResult out;
  out.estimates = GclrObserverEstimates(trust, tables, std::move(run.values),
                                        options.denominator,
                                        options.gossip.num_threads);
  out.stats = run.stats;
  // Pre-round feedback vectors: one per edge direction.
  out.stats.control_messages += graph.DegreeSum();
  return out;
}

Result<VectorAggregationResult> AggregateGclrVector(
    const Graph& graph, const TrustMatrix& trust,
    const AggregationOptions& options) {
  DGT_RETURN_IF_ERROR(ValidateInputs(graph, trust));
  DGT_ASSIGN_OR_RETURN(std::vector<WeightTable> tables,
                       BuildAllWeightTables(trust, options.weights));

  std::vector<SparseVectorRow> init = BuildGclrSparseInit(trust);
  SparseVectorPushSum engine(&graph, options.gossip);
  DGT_ASSIGN_OR_RETURN(SparseVectorGossipResult run,
                       engine.Run(std::move(init), /*use_count=*/true));
  VectorAggregationResult out;
  out.estimates = GclrObserverEstimates(trust, tables, std::move(run.rows),
                                        options.denominator,
                                        options.gossip.num_threads);
  out.stats = GossipRunStats(run, run.peak_state_nonzeros);
  // Pre-round feedback vectors: one per edge direction.
  out.stats.control_messages += graph.DegreeSum();
  return out;
}

}  // namespace dgt
