// ReputationSystem: the long-running orchestration layer. The paper runs
// gossip in periodic *rounds*; between rounds nodes transact and update
// direct trust, and before the next round each node re-pushes feedback to
// its neighbours only if it changed by more than Delta since the last push
// (or it is participating for the first time). This class owns that
// lifecycle and exposes the latest reputation matrix.

#ifndef DGT_REPUTATION_REPUTATION_SYSTEM_H_
#define DGT_REPUTATION_REPUTATION_SYSTEM_H_

#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "reputation/aggregation.h"
#include "trust/trust_matrix.h"

namespace dgt {

struct ReputationSystemOptions {
  AggregationOptions aggregation;
  // Re-push threshold Delta: feedback is re-announced to neighbours when
  // |t_now - t_last_pushed| > delta.
  double feedback_push_delta = 0.05;
  // Fresh gossip seed per round = base_seed + round index.
  uint64_t base_seed = 1;
};

class ReputationSystem {
 public:
  // `graph` and `trust` are borrowed and must outlive the system. `trust`
  // is read at each round boundary (the simulation mutates it in between).
  ReputationSystem(const Graph* graph, const TrustMatrix* trust,
                   ReputationSystemOptions options);

  // Runs one full GCLR gossip round (variant 4) over the current trust
  // state. Updates reputations() and per-round statistics.
  Status RunRound();

  // Latest reputation matrix: reputations()[i][j] = node i's view of j.
  // Empty before the first round.
  const std::vector<std::vector<double>>& reputations() const {
    return reputations_;
  }

  // Node i's current view of j; falls back to direct trust before the
  // first round, then 0.
  double Reputation(NodeId i, NodeId j) const;

  uint32_t rounds_completed() const { return rounds_; }
  const GossipRunStats& last_round_stats() const { return last_stats_; }

  // Feedback-push messages incurred by the Delta rule across all rounds.
  uint64_t feedback_push_messages() const { return feedback_messages_; }

  // Number of (node, target) feedbacks announced at the last round
  // boundary — changes exceeding Delta plus retractions of erased
  // opinions (diagnostic for tuning Delta).
  uint64_t last_round_feedback_pushes() const { return last_feedback_pushes_; }

 private:
  const Graph* graph_;
  const TrustMatrix* trust_;
  ReputationSystemOptions options_;

  std::vector<std::vector<double>> reputations_;
  // Entry (i, j): the feedback value i last announced about j.
  TrustMatrix last_pushed_;
  uint32_t rounds_ = 0;
  GossipRunStats last_stats_;
  uint64_t feedback_messages_ = 0;
  uint64_t last_feedback_pushes_ = 0;
};

}  // namespace dgt

#endif  // DGT_REPUTATION_REPUTATION_SYSTEM_H_
