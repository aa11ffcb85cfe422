// ChurnPushSum: differential push-sum over a *dynamic* overlay. The paper
// handles churn in two ways: lost packets bounce to the sender, and "when
// a node leaves during gossip process, it hands over the gossip pair
// vectors to some other node so mass conservation still applies". This
// engine implements the second mechanism literally, plus node arrivals
// that attach preferentially (the PA process continuing at runtime).
//
// It has no step loop of its own: it drives PushSumRun (gossip/push_sum.h)
// over the live overlay and changes membership between steps. Evidence,
// announcements and the stop rule are the shared loop's, so a handover
// heir measures its next step from its state at merge time, inherited
// mass included.
//
// Invariant (tested): sum of live y equals initial mass plus joined mass
// — departures never destroy mass. Conservation does not make every live
// ratio reach the global average sum(y)/sum(g) over all mass ever
// injected: departures can split the live overlay, and each connected
// part then settles at its own sum(y)/sum(g) (an isolated node keeps its
// own ratio). Within one part, two nodes that hear only from each other
// for convergence_rounds steps both announce, and one whose only
// neighbour is the other then stops before the rest of the part settles.

#ifndef DGT_GOSSIP_CHURN_ENGINE_H_
#define DGT_GOSSIP_CHURN_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "gossip/options.h"
#include "graph/graph.h"

namespace dgt {

// Preferential edges a joining node attaches with: the m = 2 of the PA
// overlays churn runs start from.
inline constexpr uint32_t kJoinEdges = 2;

struct ChurnOptions {
  // Per-step probability that a live node departs (handover on exit).
  double leave_prob = 0.0;
  // Expected number of joining nodes per step (each joins with
  // kJoinEdges preferential edges and fresh mass).
  double join_rate = 0.0;
  // Churn is active only for the first `churn_steps` steps, after which
  // the membership freezes and gossip runs to convergence (mirrors the
  // paper's round structure: churn between rounds, convergence within).
  uint32_t churn_steps = 50;
  // Joining nodes draw their value uniformly from [0, 1] and weight 1.
  uint64_t seed = 99;
  // Upper bound on total node ids (initial + joined); joins beyond the
  // capacity are skipped.
  uint32_t max_nodes = 1u << 20;
};

struct ChurnGossipResult {
  // Per-id estimates; only entries with alive[id] are meaningful.
  std::vector<double> ratios;
  std::vector<uint8_t> alive;
  uint32_t live_count = 0;
  uint32_t departures = 0;
  uint32_t arrivals = 0;

  // The conserved target: (initial + joined mass) / (initial + joined
  // weight). Live ratios can reach it only while the live overlay stays
  // connected; after a split each part settles at its own average (see
  // the class comment).
  double expected_ratio = 0.0;

  uint32_t steps = 0;
  bool converged = false;
  uint64_t gossip_messages = 0;
  uint64_t control_messages = 0;  // degree/convergence/handover messages
};

class ChurnPushSum {
 public:
  // `initial` is copied (the engine mutates its own adjacency).
  ChurnPushSum(const Graph& initial, GossipOptions gossip,
               ChurnOptions churn);

  Result<ChurnGossipResult> Run(const std::vector<double>& y0,
                                const std::vector<double>& g0);

 private:
  Graph initial_;
  GossipOptions gossip_;
  ChurnOptions churn_;
};

}  // namespace dgt

#endif  // DGT_GOSSIP_CHURN_ENGINE_H_
