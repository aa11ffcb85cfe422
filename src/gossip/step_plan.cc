#include "gossip/step_plan.h"

#include <algorithm>

namespace dgt {

void DrawTargets(const std::vector<NodeId>& nbrs, uint32_t push_count,
                 Rng& rng, std::vector<NodeId>& targets) {
  const uint32_t deg = static_cast<uint32_t>(nbrs.size());
  const uint32_t k = std::min(push_count, deg);
  targets.clear();
  if (k == 1) {
    targets.push_back(nbrs[rng.NextBelow(deg)]);
  } else {
    for (uint32_t idx : rng.SampleWithoutReplacement(deg, k)) {
      targets.push_back(nbrs[idx]);
    }
  }
}

std::vector<uint32_t> PushCounts(
    const std::vector<std::vector<NodeId>>& neighbors, PushStrategy strategy,
    KRounding rounding) {
  std::vector<uint32_t> k(neighbors.size(), 1);
  if (strategy == PushStrategy::kDifferential) {
    for (NodeId u = 0; u < k.size(); ++u) {
      k[u] = DifferentialPushCount(neighbors, u, rounding);
    }
  }
  return k;
}

void StepPlan::Reset(uint32_t num_nodes) {
  if (inbox.size() != num_nodes) inbox.resize(num_nodes);
  for (auto& box : inbox) box.clear();
  k_used.assign(num_nodes, 0);
  senders.assign(num_nodes, 0);
  pushes = 0;
}

void BuildStepPlan(const std::vector<std::vector<NodeId>>& neighbors,
                   const std::vector<uint32_t>& push_counts,
                   const std::vector<uint8_t>& inactive, double loss_prob,
                   Rng& rng, StepPlan& plan) {
  const uint32_t n = static_cast<uint32_t>(neighbors.size());
  plan.Reset(n);
  std::vector<NodeId> targets;
  for (NodeId i = 0; i < n; ++i) {
    if (inactive[i]) continue;
    DrawTargets(neighbors[i], push_counts[i], rng, targets);
    uint32_t self_shares = 1;
    for (NodeId t : targets) {
      // A bounced or lost push returns its share to the sender (mass
      // conservation; the sender does not bleed mass into a frozen sink).
      if (inactive[t] || (loss_prob > 0.0 && rng.NextBernoulli(loss_prob))) {
        ++self_shares;
        continue;
      }
      plan.inbox[t].push_back(PlanEntry{i, 1});
      ++plan.senders[t];
    }
    plan.inbox[i].push_back(PlanEntry{i, self_shares});
    plan.k_used[i] = static_cast<uint32_t>(targets.size());
    plan.pushes += plan.k_used[i];
  }
}

}  // namespace dgt
