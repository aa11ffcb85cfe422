// RunPushSum: the synchronous differential push-sum executor (the paper's
// Algorithms 1/2, after Kempe, Dobra & Gehrke's push-sum [21]), written
// once and instantiated per value policy (gossip/gossip_state.h).
// ScalarPushSum and SparseVectorPushSum are thin front-ends over it.
//
// Every step:
//   A. push generation — BuildStepPlan draws each active node's k_i
//      targets and loss outcomes and bins the shares per receiver;
//   B. merge — each receiver folds its inbox through Policy::Merge and
//      applies the convergence-evidence rule: a step counts towards its
//      streak when it heard from somebody else (|S| > 1), holds gossip
//      weight, and moved by at most the policy's threshold; a step where
//      it heard something and moved more resets the streak; silent steps
//      carry no evidence. A streak of options.convergence_rounds
//      announces convergence to all neighbours;
//   C. install — the merged state replaces the previous one (stopped
//      nodes are frozen: senders bounced instead of delivering to them);
//   D. force-converge — a node whose neighbours have all stopped can
//      never hear anything again, so it adopts its estimate and
//      announces;
//   E. stop — a node stops once it and all its neighbours announced.
// The run ends when every node has stopped or after options.max_steps.
//
// Phase B shards receivers across a ThreadPool; each receiver's inbox is
// reduced in ascending-sender order, so results are bit-for-bit identical
// at every thread count.

#ifndef DGT_GOSSIP_PUSH_SUM_H_
#define DGT_GOSSIP_PUSH_SUM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/options.h"
#include "gossip/step_plan.h"
#include "graph/graph.h"

namespace dgt {

struct NoStepHook {
  template <typename Value>
  void operator()(const std::vector<Value>&) const {}
};

// Runs `state` (one Value per node, updated in place) to convergence or
// options.max_steps. `after_step(state)` is called at the end of every
// step. Fails with InvalidArgument unless options.xi is finite and
// positive and options.packet_loss_prob lies in [0, 1].
template <typename Policy, typename AfterStep = NoStepHook>
Result<PushSumStats> RunPushSum(const Graph& graph,
                                const GossipOptions& options,
                                const std::vector<uint32_t>& push_counts,
                                Policy& policy,
                                std::vector<typename Policy::Value>& state,
                                ThreadPool& pool,
                                AfterStep&& after_step = AfterStep()) {
  if (!IsValidXi(options.xi)) {
    return Status::InvalidArgument("xi must be finite and positive");
  }
  if (!IsProbability(options.packet_loss_prob)) {
    return Status::InvalidArgument("packet_loss_prob must lie in [0, 1]");
  }
  const uint32_t n = graph.num_nodes();
  Rng rng(options.seed);
  PushSumStats stats;

  // Next-step state, installed after every receiver has merged (Phase B
  // reads other nodes' previous state, so it cannot update in place).
  std::vector<typename Policy::Value> next(n);
  std::vector<uint8_t> converged(n, 0), stopped(n, 0);
  // Consecutive qualifying steps towards the convergence announcement.
  std::vector<uint32_t> streak(n, 0);
  // Per-node accounting for the Table 2 metric.
  std::vector<uint64_t> node_sent(n, 0);
  std::vector<uint32_t> node_active_steps(n, 0);

  // One-time degree announcements: every node pushes its degree to all
  // neighbours so that k_i can be computed. Under plain push k_i is
  // constant, so no degrees need announcing.
  if (options.strategy == PushStrategy::kDifferential) {
    stats.control_messages += graph.DegreeSum();
    for (NodeId i = 0; i < n; ++i) node_sent[i] += graph.Degree(i);
  }

  // Isolated nodes can never hear from anybody: converge and stop them
  // immediately.
  std::atomic<uint32_t> num_stopped{0};
  for (NodeId i = 0; i < n; ++i) {
    if (graph.Degree(i) == 0) {
      converged[i] = 1;
      stopped[i] = 1;
      num_stopped.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const double threshold = Policy::ConvergenceThreshold(n, options.xi);
  std::atomic<uint64_t> control_messages{0};
  auto announce = [&](NodeId i) {
    converged[i] = 1;
    control_messages.fetch_add(graph.Degree(i), std::memory_order_relaxed);
    node_sent[i] += graph.Degree(i);
  };

  StepPlan plan;
  uint32_t step = 0;
  while (num_stopped.load(std::memory_order_relaxed) < n &&
         step < options.max_steps) {
    ++step;

    // Phase A.
    BuildStepPlan(graph.Adjacency(), push_counts, stopped,
                  options.packet_loss_prob, rng, plan);
    stats.gossip_messages += plan.pushes;
    for (NodeId i = 0; i < n; ++i) node_sent[i] += plan.k_used[i];
    policy.BeginStep(plan, stopped, state);

    // Phase B: each iteration writes only receiver i's own slots.
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      typename Policy::Scratch scratch;
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped[i]) continue;
        ++node_active_steps[i];
        const MergeOutcome m = policy.Merge(i, plan, state, next[i], scratch);
        if (converged[i]) continue;
        if (plan.senders[i] >= 1 && m.has_weight) {
          streak[i] = m.change <= threshold ? streak[i] + 1 : 0;
        }
        if (streak[i] >= options.convergence_rounds) announce(i);
      }
    });
    policy.EndStep(plan, stopped);

    // Phase C.
    for (NodeId i = 0; i < n; ++i) {
      if (stopped[i]) continue;
      state[i] = std::move(next[i]);
      next[i] = typename Policy::Value();
    }

    // Phase D.
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped[i] || converged[i] || graph.Degree(i) == 0) continue;
        const auto& nbrs = graph.Neighbors(i);
        if (std::all_of(nbrs.begin(), nbrs.end(),
                        [&](NodeId v) { return stopped[v] != 0; })) {
          announce(i);
        }
      }
    });

    // Phase E.
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped[i] || !converged[i]) continue;
        const auto& nbrs = graph.Neighbors(i);
        if (std::all_of(nbrs.begin(), nbrs.end(),
                        [&](NodeId v) { return converged[v] != 0; })) {
          stopped[i] = 1;
          num_stopped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });

    after_step(state);
  }

  stats.control_messages += control_messages.load(std::memory_order_relaxed);
  stats.steps = step;
  stats.converged = num_stopped.load(std::memory_order_relaxed) == n;
  double per_step_sum = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    per_step_sum += static_cast<double>(node_sent[i]) /
                    static_cast<double>(std::max(node_active_steps[i], 1u));
  }
  stats.mean_messages_per_active_node_step =
      n > 0 ? per_step_sum / static_cast<double>(n) : 0.0;
  return stats;
}

}  // namespace dgt

#endif  // DGT_GOSSIP_PUSH_SUM_H_
