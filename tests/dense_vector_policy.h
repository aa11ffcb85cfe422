// DenseVectorPolicy: a dense-vector value policy kept only as a test
// oracle. Every node holds length-N y, g (and c) vectors, and every merge
// walks all N columns, so the code is simple enough to trust by reading.
// It runs through both executors — RunPushSum (synchronous Merge) and
// AsyncEventEngine (Split/Absorb/...) — and the library's vector policy,
// fed sparse rows, must match it bit for bit: absent sparse columns are
// exact zeros, and both walk columns in ascending order with the same
// accumulation order.

#ifndef DGT_TESTS_DENSE_VECTOR_POLICY_H_
#define DGT_TESTS_DENSE_VECTOR_POLICY_H_

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/push_sum.h"
#include "gossip/sparse_vector_engine.h"

namespace dgt {
namespace testing_util {

class DenseVectorPolicy {
 public:
  // Parallel dense channels; c is empty when the count channel is unused.
  struct Value {
    std::vector<double> y, g, c;
  };
  struct Share {
    std::shared_ptr<const Value> data;
    double scale = 0.0;
  };
  struct Snapshot {
    std::vector<double> r;   // per-column ratio (kRatioSentinel if g == 0)
    std::vector<double> rc;  // count ratio; empty when unused
  };
  struct Scratch {};

  static Share Split(Value& v, uint32_t k) {
    const double inv = 1.0 / (static_cast<double>(k) + 1.0);
    auto snap = std::make_shared<Value>(std::move(v));
    v = Value{Scaled(snap->y, inv), Scaled(snap->g, inv),
              Scaled(snap->c, inv)};
    return Share{std::move(snap), inv};
  }
  static void Absorb(Value& v, const Share& s) {
    AddScaled(v.y, s.data->y, s.scale);
    AddScaled(v.g, s.data->g, s.scale);
    AddScaled(v.c, s.data->c, s.scale);
  }
  static bool HasWeight(const Value& v) {
    for (double g : v.g) {
      if (g != 0.0) return true;
    }
    return false;
  }
  static Snapshot TakeSnapshot(const Value& v) {
    return Snapshot{Ratios(v.y, v.g), Ratios(v.c, v.g)};
  }
  static double Distance(const Snapshot& a, const Snapshot& b) {
    double l1 = 0.0;
    for (size_t j = 0; j < a.r.size(); ++j) l1 += std::fabs(b.r[j] - a.r[j]);
    for (size_t j = 0; j < a.rc.size(); ++j) {
      l1 += std::fabs(b.rc[j] - a.rc[j]);
    }
    return l1;
  }
  static double ConvergenceThreshold(uint32_t n, double xi) {
    return static_cast<double>(n) * xi;
  }

  explicit DenseVectorPolicy(bool use_count) : use_count_(use_count) {}

  void BeginStep(const StepPlan&, const std::vector<uint8_t>&) {}
  void EndStep(const StepPlan&, const std::vector<uint8_t>&) {}

  // Sums shares * 1/(k+1) of every sender's whole vector, then eq. (7)
  // over all N columns (ratio term, then count term, per column).
  MergeOutcome Merge(NodeId i, const StepPlan& plan,
                     const std::vector<Value>& state, Value& out,
                     Scratch&) const {
    const size_t n = state.size();
    out.y.assign(n, 0.0);
    out.g.assign(n, 0.0);
    out.c.assign(use_count_ ? n : 0, 0.0);
    for (const PlanEntry& e : plan.inbox[i]) {
      const double inv =
          1.0 / (static_cast<double>(plan.k_used[e.sender]) + 1.0);
      const double scale = static_cast<double>(e.shares) * inv;
      const Value& src = state[e.sender];
      for (size_t j = 0; j < n; ++j) {
        out.y[j] += src.y[j] * scale;
        out.g[j] += src.g[j] * scale;
      }
      AddScaled(out.c, src.c, scale);
    }
    const Value& old = state[i];
    MergeOutcome m;
    for (size_t j = 0; j < n; ++j) {
      if (out.g[j] != 0.0) m.has_weight = true;
      m.change += std::fabs(Ratio(out.y[j], out.g[j]) -
                            Ratio(old.y[j], old.g[j]));
      if (use_count_) {
        m.change += std::fabs(Ratio(out.c[j], out.g[j]) -
                              Ratio(old.c[j], old.g[j]));
      }
    }
    return m;
  }

  static double Ratio(double num, double g) {
    return g != 0.0 ? num / g : kRatioSentinel;
  }
  static std::vector<double> Ratios(const std::vector<double>& num,
                                    const std::vector<double>& g) {
    std::vector<double> r(num.size());
    for (size_t j = 0; j < num.size(); ++j) r[j] = Ratio(num[j], g[j]);
    return r;
  }

 private:
  static std::vector<double> Scaled(const std::vector<double>& v, double s) {
    std::vector<double> out(v.size());
    for (size_t j = 0; j < v.size(); ++j) out[j] = v[j] * s;
    return out;
  }
  static void AddScaled(std::vector<double>& acc,
                        const std::vector<double>& v, double s) {
    for (size_t j = 0; j < v.size(); ++j) acc[j] += v[j] * s;
  }

  bool use_count_;
};

// One synchronous dense run through the shared executor.
struct DenseRun {
  PushSumStats stats;
  std::vector<DenseVectorPolicy::Value> state;  // final y/g/c per node

  // estimates[i][j] = y_ij / g_ij (kRatioSentinel where g_ij == 0); with
  // `count`, c_ij / g_ij instead.
  std::vector<std::vector<double>> Estimates(bool count = false) const {
    std::vector<std::vector<double>> out;
    for (const auto& v : state) {
      out.push_back(DenseVectorPolicy::Ratios(count ? v.c : v.y, v.g));
    }
    return out;
  }
};

inline Result<DenseRun> RunDense(const Graph& graph,
                                 const GossipOptions& options,
                                 std::vector<DenseVectorPolicy::Value> init,
                                 bool use_count) {
  DenseVectorPolicy policy(use_count);
  ThreadPool pool(options.num_threads);
  DenseRun run;
  run.state = std::move(init);
  const std::vector<uint32_t> push_counts = PushCounts(
      graph.Adjacency(), options.strategy, options.k_rounding);
  DGT_ASSIGN_OR_RETURN(run.stats, RunPushSum(graph, options, push_counts,
                                             policy, run.state, pool));
  return run;
}

// Dense node values from N x N matrices (c0 empty: count channel off).
inline std::vector<DenseVectorPolicy::Value> DenseValues(
    const std::vector<std::vector<double>>& y0,
    const std::vector<std::vector<double>>& g0,
    const std::vector<std::vector<double>>& c0 = {}) {
  std::vector<DenseVectorPolicy::Value> out(y0.size());
  for (size_t i = 0; i < y0.size(); ++i) {
    out[i] = {y0[i], g0[i], c0.empty() ? std::vector<double>() : c0[i]};
  }
  return out;
}

// Sparse rows equivalent to dense N x N matrices (all-zero entries
// dropped; c0 empty: count channel off).
inline std::vector<SparseVectorRow> SparseFromDense(
    const std::vector<std::vector<double>>& y0,
    const std::vector<std::vector<double>>& g0,
    const std::vector<std::vector<double>>& c0 = {}) {
  const size_t n = y0.size();
  std::vector<SparseVectorRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double c = c0.empty() ? 0.0 : c0[i][j];
      if (y0[i][j] == 0.0 && g0[i][j] == 0.0 && c == 0.0) continue;
      rows[i].cols.push_back(static_cast<uint32_t>(j));
      rows[i].y.push_back(y0[i][j]);
      rows[i].g.push_back(g0[i][j]);
      if (!c0.empty()) rows[i].c.push_back(c);
    }
  }
  return rows;
}

// A sparse run's estimates as an N x N matrix, kRatioSentinel where no
// weight arrived; with `count`, the count estimates instead.
inline std::vector<std::vector<double>> Densify(
    const SparseVectorGossipResult& r, bool count = false) {
  const size_t n = r.rows.size();
  std::vector<std::vector<double>> out(
      n, std::vector<double>(n, kRatioSentinel));
  for (size_t i = 0; i < n; ++i) {
    const auto& row = r.rows[i];
    const auto& vals = count ? row.count_estimates : row.estimates;
    for (size_t k = 0; k < row.cols.size(); ++k) out[i][row.cols[k]] = vals[k];
  }
  return out;
}

}  // namespace testing_util
}  // namespace dgt

#endif  // DGT_TESTS_DENSE_VECTOR_POLICY_H_
