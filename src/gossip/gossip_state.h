// Value policies for the push-sum executors: the per-node state, how it
// splits and merges, and the convergence metric. Each executor is written
// once and instantiated per policy — scalar (paper variants 1/2) and one
// dense row per node (vector variants 3/4):
//   PushSumRun (gossip/push_sum.h) — synchronous rounds; each receiver
//     folds its whole inbox at once through Merge.
//   AsyncEventEngine (net/async_engine.h) — event-driven; shares arrive
//     one at a time through Split/Absorb.
//
// Asynchronous interface (static):
//   Value / Share / Snapshot — node-resident mass, an in-flight message
//     (a vector share holds one copy of the sender's row, freed when the
//     last receiver absorbs it), and what the convergence test compares
//     across firings.
//   Split(v, k) — split v into k+1 equal shares; v keeps one, the
//     returned Share is sent. Absorb(v, s) — merge an arriving share.
//   HasWeight(v) — any gossip weight present (the evidence gate).
//   TakeSnapshot(v), Distance(a, b) — the current estimate and the L1
//     distance between two (zero-weight columns sit at kRatioSentinel,
//     the paper's eq. (7)).
//   ConvergenceThreshold(n, xi) — xi for scalar, n * xi for vectors.
//
// Synchronous interface (on an instance, which carries the run's
// count-channel switch and bookkeeping):
//   Scratch — per-shard merge workspace.
//   BeginStep(plan, stopped) — after push generation.
//   Merge(i, plan, state, out, scratch) -> MergeOutcome — fold receiver
//     i's inbox (ascending-sender order) into `out` and measure the change
//     from i's current state; called concurrently for distinct receivers.
//   EndStep(plan, stopped) — after every receiver merged, serially.
// Each Merge keeps the historical engine's arithmetic verbatim.

#ifndef DGT_GOSSIP_GOSSIP_STATE_H_
#define DGT_GOSSIP_GOSSIP_STATE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "gossip/options.h"
#include "gossip/step_plan.h"
#include "graph/graph.h"

namespace dgt {

// What a synchronous Merge reports for the convergence-evidence rule.
struct MergeOutcome {
  double change = 0.0;      // distance from the node's previous estimate
  bool has_weight = false;  // any gossip weight in the merged state
};

// num / g, or kRatioSentinel where g == 0: the estimate that every
// policy's snapshots and eq. (7) terms compare.
inline double GossipRatio(double num, double g) {
  return g != 0.0 ? num / g : kRatioSentinel;
}

// --- Scalar (paper variants 1/2: one value per node) -------------------

class ScalarGossipPolicy {
 public:
  // c is the optional count channel (zero when unused).
  struct Value {
    double y = 0.0;
    double g = 0.0;
    double c = 0.0;
  };
  using Share = Value;
  using Snapshot = double;
  struct Scratch {};

  static Share Split(Value& v, uint32_t k) {
    const double inv = 1.0 / (static_cast<double>(k) + 1.0);
    v = Value{v.y * inv, v.g * inv, v.c * inv};
    return v;
  }
  static void Absorb(Value& v, const Share& s) {
    v.y += s.y;
    v.g += s.g;
    v.c += s.c;
  }
  static bool HasWeight(const Value& v) { return v.g != 0.0; }
  static Snapshot TakeSnapshot(const Value& v) {
    return GossipRatio(v.y, v.g);
  }
  static double Distance(const Snapshot& a, const Snapshot& b) {
    return std::fabs(a - b);
  }
  static double ConvergenceThreshold(uint32_t /*n*/, double xi) { return xi; }

  explicit ScalarGossipPolicy(bool use_count) : use_count_(use_count) {}

  void BeginStep(const StepPlan&, const std::vector<uint8_t>&) {}
  void EndStep(const StepPlan&, const std::vector<uint8_t>&) {}

  // Each share is the sender's channel divided by k+1; a kept-self entry
  // carrying bounced pushes adds that share repeatedly (not a multiply).
  // The change is |ratio - previous ratio|, plus the count-channel term.
  MergeOutcome Merge(NodeId i, const StepPlan& plan,
                     const std::vector<Value>& state, Value& out,
                     Scratch&) const {
    double acc_y = 0.0, acc_g = 0.0, acc_c = 0.0;
    for (const PlanEntry& e : plan.inbox[i]) {
      const double denom = static_cast<double>(plan.k_used[e.sender]) + 1.0;
      const Value& src = state[e.sender];
      const double sy = src.y / denom;
      const double sg = src.g / denom;
      const double sc = use_count_ ? src.c / denom : 0.0;
      double ty = sy, tg = sg, tc = sc;
      for (uint32_t s = 1; s < e.shares; ++s) {
        ty += sy;
        tg += sg;
        tc += sc;
      }
      acc_y += ty;
      acc_g += tg;
      acc_c += tc;
    }
    out = Value{acc_y, acc_g, acc_c};
    const Value& old = state[i];
    double change =
        std::fabs(GossipRatio(acc_y, acc_g) - GossipRatio(old.y, old.g));
    if (use_count_) {
      change +=
          std::fabs(GossipRatio(acc_c, acc_g) - GossipRatio(old.c, old.g));
    }
    return {change, acc_g != 0.0};
  }

 private:
  bool use_count_;
};

// --- Vector (paper variants 3/4: one row per node) --------------------

// Sorted sparse (column, y, g[, c]) entries, the vector executors' input
// and output format: `cols` is strictly increasing; `y`/`g` (and `c` with
// the count channel) are parallel to it. Absent columns hold exact zeros.
struct SparseVectorRow {
  std::vector<uint32_t> cols;
  std::vector<double> y;
  std::vector<double> g;
  std::vector<double> c;  // empty when the count channel is unused
};

// Checks an initial state for the scalar executors: y0 and g0 hold
// num_nodes entries, c0 none (count channel off) or num_nodes, every
// value is finite and no gossip weight is negative.
Status ValidateScalarInputs(uint32_t num_nodes, const std::vector<double>& y0,
                            const std::vector<double>& g0,
                            const std::vector<double>& c0);

// Checks an initial state for the vector executors: exactly num_nodes
// rows; per row, y/g parallel to cols, c parallel iff use_count, cols
// strictly increasing in [0, num_nodes), every value finite and no
// negative gossip weight.
Status ValidateSparseRows(uint32_t num_nodes,
                          const std::vector<SparseVectorRow>& rows,
                          bool use_count);

class VectorGossipPolicy {
 public:
  // One node's state: y, g and, with the count channel, c, each of
  // length N (c is empty without it). A released row is empty.
  struct Value {
    std::vector<double> y, g, c;
  };
  // `scale` times a copy of the sender's row, shared by one firing's
  // targets.
  struct Share {
    std::shared_ptr<const Value> row;
    double scale = 0.0;
  };
  // Per column y/g, then c/g with the count channel (kRatioSentinel
  // where g == 0).
  using Snapshot = std::vector<double>;
  // (source row, shares * 1/(k+1)) per entry of the inbox being merged.
  using Scratch = std::vector<std::pair<const Value*, double>>;

  // Split keeps 0.0 + v / (k+1) and Absorb adds as (0.0 + v) + scale *
  // row, per entry, so a -0.0 input entry turns into +0.0 as in Merge.
  static Share Split(Value& v, uint32_t k);
  static void Absorb(Value& v, const Share& s);
  static bool HasWeight(const Value& v);
  static Snapshot TakeSnapshot(const Value& v);
  // eq. (7)'s L1 distance, in snapshot order.
  static double Distance(const Snapshot& a, const Snapshot& b);
  static double ConvergenceThreshold(uint32_t n, double xi) {
    return static_cast<double>(n) * xi;
  }

  // The one conversion each way. FromSparse scatters rows checked by
  // ValidateSparseRows, freeing each once copied; ToSparse keeps the
  // columns whose channels are not all zero.
  static std::vector<Value> FromSparse(std::vector<SparseVectorRow> rows,
                                       bool use_count);
  static SparseVectorRow ToSparse(const Value& v);

  // `init` is the run's state before FromSparse; its entries seed the
  // nonzero count.
  VectorGossipPolicy(const std::vector<SparseVectorRow>& init,
                     bool use_count);

  // Counts each previous-step row's consumers for the release below.
  void BeginStep(const StepPlan& plan, const std::vector<uint8_t>& stopped);
  // Folds receiver i's inbox into `out`, a pooled row if one is free:
  // each column sums its inbox rows scaled by shares * 1/(k+1), in inbox
  // order, and adds its eq. (7) terms to the change. Returns every
  // previous-step row whose last consumer this merge was to the pool.
  MergeOutcome Merge(NodeId i, const StepPlan& plan,
                     std::vector<Value>& state, Value& out, Scratch& inbox);
  // Replays the serial receiver-order bookkeeping (merge row i, then
  // release the rows whose last consumer was i) so peak_state_nonzeros is
  // identical at every thread count.
  void EndStep(const StepPlan& plan, const std::vector<uint8_t>& stopped);

  // Peak over all steps of the live rows' nonzero entries (the input
  // rows' entries, then each merged row's columns whose channels are not
  // all zero). A count, not bytes: every live row holds N columns.
  uint64_t peak_state_nonzeros() const { return peak_nnz_; }

 private:
  bool use_count_;
  // Live consumer counts of previous-step rows (atomic: under a threaded
  // merge the last consumer may finish on any worker).
  std::vector<std::atomic<uint32_t>> refs_;
  std::vector<uint32_t> replay_refs_;
  // Nonzero entries of each node's installed row and of its merged row.
  std::vector<uint64_t> row_nnz_, merged_nnz_;
  uint64_t total_nnz_ = 0;
  uint64_t peak_nnz_ = 0;
  // Released rows, all of length N, for the next merges to reuse.
  Mutex pool_mu_;
  std::vector<Value> pool_ DGT_GUARDED_BY(pool_mu_);
};

}  // namespace dgt

#endif  // DGT_GOSSIP_GOSSIP_STATE_H_
