#include "reputation/reputation_system.h"

#include <cassert>
#include <cmath>

namespace dgt {

ReputationSystem::ReputationSystem(const Graph* graph,
                                   const TrustMatrix* trust,
                                   ReputationSystemOptions options)
    : graph_(graph),
      trust_(trust),
      options_(options),
      last_pushed_(trust->num_nodes()) {
  assert(graph_ != nullptr);
}

Status ReputationSystem::RunRound() {
  const uint32_t n = trust_->num_nodes();
  if (graph_->num_nodes() != n) {
    return Status::FailedPrecondition("graph/trust node count mismatch");
  }

  // Retraction rule: an opinion that was announced but has since been
  // erased from the trust matrix must not be treated as still-announced
  // forever; drop the stale entry and charge the retraction push.
  last_feedback_pushes_ = 0;
  for (NodeId i = 0; i < n; ++i) {
    const auto& announced = last_pushed_.Row(i);
    // Backwards, so erasing entry k moves none of the entries still to
    // visit.
    for (size_t k = announced.size(); k-- > 0;) {
      const NodeId j = announced[k].first;
      if (trust_->HasOpinion(i, j)) continue;
      ++last_feedback_pushes_;
      feedback_messages_ += graph_->Degree(i);
      last_pushed_.Erase(i, j);
    }
  }

  // Delta rule: count feedback entries that must be (re-)announced. Each
  // such entry costs one message per neighbour of the announcing node.
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [j, t] : trust_->Row(i)) {
      bool push = !last_pushed_.HasOpinion(i, j) ||
                  std::fabs(last_pushed_.Get(i, j) - t) >
                      options_.feedback_push_delta;
      if (push) {
        DGT_RETURN_IF_ERROR(last_pushed_.Set(i, j, t));
        ++last_feedback_pushes_;
        feedback_messages_ += graph_->Degree(i);
      }
    }
  }

  AggregationOptions agg = options_.aggregation;
  agg.gossip.seed = options_.base_seed + rounds_;
  DGT_ASSIGN_OR_RETURN(VectorAggregationResult result,
                       AggregateGclrVector(*graph_, *trust_, agg));
  reputations_ = std::move(result.estimates);
  last_stats_ = result.stats;
  ++rounds_;
  return Status::OK();
}

double ReputationSystem::Reputation(NodeId i, NodeId j) const {
  if (rounds_ == 0 || i >= reputations_.size() ||
      j >= reputations_[i].size()) {
    return trust_->Get(i, j);
  }
  return reputations_[i][j];
}

}  // namespace dgt
