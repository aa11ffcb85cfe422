#include "gossip/step_plan.h"

#include <algorithm>
#include <utility>

namespace dgt {

namespace {

// Draws node i's pushes for one step and emits them as (receiver,
// PlanEntry) pairs — delivered shares first (in target draw order), then
// the kept-self entry. Returns k, the number of pushes transmitted.
template <typename Emit>
uint32_t DrawNodePushes(const std::vector<NodeId>& nbrs, uint32_t push_count,
                        double loss_prob, NodeId i, Rng& rng,
                        const std::vector<uint8_t>& inactive,
                        std::vector<NodeId>& targets, Emit&& emit) {
  DrawTargets(nbrs, push_count, rng, targets);
  uint32_t self_shares = 1;
  for (NodeId t : targets) {
    // A bounced or lost push returns its share to the sender (mass
    // conservation; the sender does not bleed mass into a frozen sink).
    if (inactive[t] || (loss_prob > 0.0 && rng.NextBernoulli(loss_prob))) {
      ++self_shares;
      continue;
    }
    emit(t, PlanEntry{i, 1});
  }
  emit(i, PlanEntry{i, self_shares});
  return static_cast<uint32_t>(targets.size());
}

}  // namespace

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
                   const GossipOptions& options,
                   const std::vector<uint32_t>& push_counts,
                   const std::vector<uint8_t>& inactive, uint32_t step,
                   Rng& shared_rng, const Rng& stream_root, ThreadPool& pool,
                   StepPlan& plan) {
  const uint32_t n = static_cast<uint32_t>(neighbors.size());
  plan.Reset(n);

  if (options.rng_mode == GossipRngMode::kSequential) {
    std::vector<NodeId> targets;
    for (NodeId i = 0; i < n; ++i) {
      if (inactive[i]) continue;
      plan.k_used[i] = DrawNodePushes(
          neighbors[i], push_counts[i], options.packet_loss_prob, i,
          shared_rng, inactive, targets, [&](NodeId t, PlanEntry e) {
            plan.inbox[t].push_back(e);
            if (e.sender != t) ++plan.senders[t];
          });
      plan.pushes += plan.k_used[i];
    }
    return;
  }

  // Counter mode: each node draws from its own (node, step) stream, so
  // shards can generate concurrently into per-shard delivery buffers.
  // Binning walks the shards in order — within a shard nodes were
  // processed in ascending order, so every receiver's list again ends up
  // in ascending-sender order, independent of the shard count.
  const size_t num_shards = pool.NumShards(n);
  std::vector<std::vector<std::pair<NodeId, PlanEntry>>> shard_out(num_shards);
  pool.ParallelFor(n, [&](size_t shard, size_t begin, size_t end) {
    auto& out = shard_out[shard];
    std::vector<NodeId> targets;
    for (size_t i = begin; i < end; ++i) {
      if (inactive[i]) continue;
      const NodeId node = static_cast<NodeId>(i);
      Rng rng = stream_root.StreamAt(node, step);
      plan.k_used[i] = DrawNodePushes(
          neighbors[node], push_counts[i], options.packet_loss_prob, node,
          rng, inactive, targets,
          [&](NodeId t, PlanEntry e) { out.emplace_back(t, e); });
    }
  });
  for (const auto& out : shard_out) {
    for (const auto& [receiver, entry] : out) {
      plan.inbox[receiver].push_back(entry);
      if (entry.sender != receiver) ++plan.senders[receiver];
    }
  }
  for (NodeId i = 0; i < n; ++i) plan.pushes += plan.k_used[i];
}

}  // namespace dgt
