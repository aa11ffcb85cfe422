// Shared configuration and result types for the gossip engines.

#ifndef DGT_GOSSIP_OPTIONS_H_
#define DGT_GOSSIP_OPTIONS_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace dgt {

// How many pushes a node makes per gossip step.
enum class PushStrategy {
  // Plain push-sum (Kempe et al. [21]): every node makes one push.
  kUniform,
  // The paper's differential push: node i makes
  // k_i = round(deg(i)/avg_neighbor_deg(i)) pushes (k_i >= 1).
  kDifferential,
};

// Ratio y/g reported while a node holds no gossip weight (g == 0) for a
// quantity; the paper uses 10. Eq. (7)'s convergence test compares
// ratios, so a column that gains its first weight moves by |r - 10|.
inline constexpr double kRatioSentinel = 10.0;

// A usable convergence tolerance is finite and positive. A NaN xi fails
// every comparison, so no node could ever converge under it.
inline bool IsValidXi(double xi) { return std::isfinite(xi) && xi > 0.0; }

// A probability lies in [0, 1]; NaN fails both bounds.
inline bool IsProbability(double p) { return p >= 0.0 && p <= 1.0; }

struct GossipOptions {
  PushStrategy strategy = PushStrategy::kDifferential;

  // Integer mapping for the differential push count (ablation knob; the
  // paper rounds to nearest).
  KRounding k_rounding = KRounding::kRound;

  // Convergence tolerance xi: a node declares itself converged when its
  // ratio changed by at most xi since the previous step (and it heard from
  // at least one other node that step). Must satisfy IsValidXi.
  double xi = 1e-4;

  // Consecutive qualifying steps required before a node announces
  // convergence. The paper's Algorithm 1 tests a single step, but two
  // neighbours that happen to exchange shares with each other (and hear
  // from nobody else) keep *exactly* equal ratios and would converge
  // falsely; requiring a short streak makes that coincidence vanishingly
  // unlikely. Set to 1 for the paper's literal protocol; 0 is rejected.
  uint32_t convergence_rounds = 5;

  // Probability that a push to a neighbour is lost (churn model). The
  // pushing node then pushes the share back to itself, preserving mass.
  // Must satisfy IsProbability.
  double packet_loss_prob = 0.0;

  // Hard cap on gossip steps; the run reports converged=false if reached.
  uint32_t max_steps = 100000;

  uint64_t seed = 1;

  // Worker threads for the two-phase parallel step (see ARCHITECTURE.md):
  // serial push generation fills per-receiver contribution lists, then
  // every receiver's merge + convergence test runs sharded with a fixed
  // per-receiver reduction order. Results are bit-for-bit identical at
  // every thread count (asserted by tests/gossip/parallel_equivalence_
  // test.cc) and to the historical serial engines; 0 means one thread
  // per hardware core.
  uint32_t num_threads = 1;

  // Record the per-step ratio of every node (Table 1 traces). Scalar
  // engine only; costs O(N) per step.
  bool track_trace = false;
};

// Protocol outcome of a synchronous push-sum run; every engine result and
// GossipRunStats extend it.
struct PushSumStats {
  uint32_t steps = 0;
  bool converged = false;

  // Gossip pushes actually transmitted to other nodes (lost ones included:
  // the transmission cost is incurred before the loss is detected).
  uint64_t gossip_messages = 0;
  // One-time degree announcements plus convergence announcements.
  uint64_t control_messages = 0;

  // Mean over nodes of (messages the node transmitted, gossip + control) /
  // (steps the node was active before stopping) — the Table 2 metric.
  // A node's degree announcement and convergence announcement are charged
  // to it, so the fixed overhead amortises over more steps as N grows or
  // xi shrinks, reproducing the paper's downward trend.
  double mean_messages_per_active_node_step = 0.0;
};

// Outcome of a scalar push-sum run.
struct GossipResult : PushSumStats {
  // Final per-node estimate y_i/g_i (kRatioSentinel where g_i == 0).
  std::vector<double> ratios;
  std::vector<double> values;   // final y_i
  std::vector<double> weights;  // final g_i
  std::vector<double> counts;   // final count channel (zero if unused)

  // trace[m][i] = ratio of node i after step m (only if track_trace).
  std::vector<std::vector<double>> trace;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_OPTIONS_H_
