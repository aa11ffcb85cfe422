// PushSumRun: the synchronous differential push-sum step loop (the paper's
// Algorithms 1/2, after Kempe, Dobra & Gehrke's push-sum [21]), written
// once and instantiated per value policy (gossip/gossip_state.h). It is
// the only synchronous step loop: RunPushSum drives it over a fixed graph
// for ScalarPushSum and SparseVectorPushSum, and ChurnPushSum drives it
// over a live overlay, changing membership between steps.
//
// Every step:
//   A. push generation — BuildStepPlan draws each active node's k_i
//      targets and loss outcomes and bins the shares per receiver;
//   B. merge — each receiver folds its inbox through Policy::Merge and
//      applies the convergence-evidence rule: a step counts towards its
//      streak when it heard from somebody else (|S| > 1), holds gossip
//      weight, and moved by at most the policy's threshold from its state
//      at merge time; a step where it heard something and moved more
//      resets the streak; silent steps carry no evidence. A streak of
//      options.convergence_rounds announces convergence to all
//      neighbours;
//   C. install — the merged state replaces the previous one (stopped
//      nodes are frozen: senders bounced instead of delivering to them);
//   D. force-converge — a node whose neighbours have all stopped can
//      never hear anything again, so it adopts its estimate and
//      announces;
//   E. stop — a node stops once it and all its neighbours announced.
// A run is done when every node has stopped or after options.max_steps.
//
// Phase B shards receivers across a ThreadPool; each receiver's inbox is
// reduced in ascending-sender order, so results are bit-for-bit identical
// at every thread count.

#ifndef DGT_GOSSIP_PUSH_SUM_H_
#define DGT_GOSSIP_PUSH_SUM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <type_traits>
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

// Fails with InvalidArgument unless options.xi is finite and positive,
// options.packet_loss_prob lies in [0, 1] and options.convergence_rounds
// is at least 1 (at 0 every node would announce at its first evidence).
inline Status CheckPushSumOptions(const GossipOptions& options) {
  if (!IsValidXi(options.xi)) {
    return Status::InvalidArgument("xi must be finite and positive");
  }
  if (!IsProbability(options.packet_loss_prob)) {
    return Status::InvalidArgument("packet_loss_prob must lie in [0, 1]");
  }
  if (options.convergence_rounds == 0) {
    return Status::InvalidArgument("convergence_rounds must be >= 1");
  }
  return Status::OK();
}

// One run's loop state over the neighbour lists `neighbors` (one per
// node). The overlay, the push counts and the per-node values are read
// through references, so a caller may change them between steps through
// the membership calls below. `options` must pass CheckPushSumOptions.
template <typename Policy>
class PushSumRun {
 public:
  using Value = typename Policy::Value;

  PushSumRun(const std::vector<std::vector<NodeId>>& neighbors,
             const GossipOptions& options,
             const std::vector<uint32_t>& push_counts, Policy& policy,
             std::vector<Value>& state, ThreadPool& pool)
      : neighbors_(neighbors),
        options_(options),
        push_counts_(push_counts),
        policy_(policy),
        state_(state),
        pool_(pool),
        rng_(options.seed),
        threshold_(Policy::ConvergenceThreshold(
            static_cast<uint32_t>(neighbors.size()), options.xi)) {
    const uint32_t n = static_cast<uint32_t>(neighbors.size());
    Resize(n);
    // One-time degree announcements: every node pushes its degree to all
    // neighbours so that k_i can be computed. Under plain push k_i is
    // constant, so no degrees need announcing.
    if (options.strategy == PushStrategy::kDifferential) {
      for (NodeId i = 0; i < n; ++i) {
        stats_.control_messages += neighbors[i].size();
        node_sent_[i] += neighbors[i].size();
      }
    }
    // Isolated nodes can never hear from anybody: converge and stop them
    // immediately.
    for (NodeId i = 0; i < n; ++i) {
      if (neighbors[i].empty()) Retire(i);
    }
  }

  uint32_t steps() const { return step_; }
  bool stopped(NodeId i) const { return stopped_[i] != 0; }
  bool AllStopped() const {
    return std::find(stopped_.begin(), stopped_.end(), 0) == stopped_.end();
  }
  bool Done() const { return AllStopped() || step_ >= options_.max_steps; }

  // Runs phases A–E once.
  void Step() {
    const uint32_t n = num_nodes();
    ++step_;

    // Phase A.
    BuildStepPlan(neighbors_, push_counts_, stopped_,
                  options_.packet_loss_prob, rng_, plan_);
    stats_.gossip_messages += plan_.pushes;
    for (NodeId i = 0; i < n; ++i) node_sent_[i] += plan_.k_used[i];
    policy_.BeginStep(plan_, stopped_, state_);

    // Phase B: each iteration writes only receiver i's own slots.
    pool_.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      typename Policy::Scratch scratch;
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped_[i]) continue;
        ++node_active_steps_[i];
        const MergeOutcome m =
            policy_.Merge(i, plan_, state_, next_[i], scratch);
        if (converged_[i]) continue;
        if (plan_.senders[i] >= 1 && m.has_weight) {
          streak_[i] = m.change <= threshold_ ? streak_[i] + 1 : 0;
        }
        if (streak_[i] >= options_.convergence_rounds) Announce(i);
      }
    });
    policy_.EndStep(plan_, stopped_);

    // Phase C.
    for (NodeId i = 0; i < n; ++i) {
      if (stopped_[i]) continue;
      state_[i] = std::move(next_[i]);
      next_[i] = Value();
    }

    // Phase D.
    pool_.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped_[i] || converged_[i] || neighbors_[i].empty()) continue;
        const auto& nbrs = neighbors_[i];
        if (std::all_of(nbrs.begin(), nbrs.end(),
                        [&](NodeId v) { return stopped_[v] != 0; })) {
          Announce(i);
        }
      }
    });

    // Phase E.
    pool_.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        if (stopped_[i] || !converged_[i]) continue;
        const auto& nbrs = neighbors_[i];
        if (std::all_of(nbrs.begin(), nbrs.end(),
                        [&](NodeId v) { return converged_[v] != 0; })) {
          stopped_[i] = 1;
        }
      }
    });
  }

  // The run's protocol outcome after the steps taken so far.
  PushSumStats Stats() const {
    const uint32_t n = num_nodes();
    PushSumStats stats = stats_;
    stats.control_messages +=
        announce_messages_.load(std::memory_order_relaxed);
    stats.steps = step_;
    stats.converged = AllStopped();
    double per_step_sum = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      per_step_sum +=
          static_cast<double>(node_sent_[i]) /
          static_cast<double>(std::max(node_active_steps_[i], 1u));
    }
    stats.mean_messages_per_active_node_step =
        n > 0 ? per_step_sum / static_cast<double>(n) : 0.0;
    return stats;
  }

  // Membership changes, made between steps. Only the scalar policy is
  // driven with them: the sparse one sizes its per-node bookkeeping once.
  // Before every step a node without neighbours must be stopped, or
  // Phase A would draw its targets from an empty list.
  //
  // Stops node i without an announcement: it departed, or it was left
  // with no neighbours.
  void Retire(NodeId i) {
    converged_[i] = 1;
    stopped_[i] = 1;
  }

  // Appends the slots of a node whose value and neighbour list the caller
  // has appended; the push counts must cover it before the next step.
  void AddNode() {
    static_assert(std::is_same_v<Policy, ScalarGossipPolicy>,
                  "only the scalar policy is driven with membership changes");
    Resize(num_nodes() + 1);
  }

  // Clears converged, stopped and streak on every node that has
  // neighbours, so the round resumes after the averaged quantity changed.
  void Restart() {
    for (NodeId i = 0; i < num_nodes(); ++i) {
      if (neighbors_[i].empty()) continue;
      converged_[i] = 0;
      stopped_[i] = 0;
      streak_[i] = 0;
    }
  }

 private:
  uint32_t num_nodes() const { return static_cast<uint32_t>(stopped_.size()); }

  // Sizes every per-node slot; new slots start unconverged and running.
  void Resize(uint32_t n) {
    next_.resize(n);
    converged_.resize(n, 0);
    stopped_.resize(n, 0);
    streak_.resize(n, 0);
    node_sent_.resize(n, 0);
    node_active_steps_.resize(n, 0);
  }

  void Announce(NodeId i) {
    converged_[i] = 1;
    announce_messages_.fetch_add(neighbors_[i].size(),
                                 std::memory_order_relaxed);
    node_sent_[i] += neighbors_[i].size();
  }

  const std::vector<std::vector<NodeId>>& neighbors_;
  const GossipOptions options_;
  const std::vector<uint32_t>& push_counts_;
  Policy& policy_;
  std::vector<Value>& state_;
  ThreadPool& pool_;
  Rng rng_;
  const double threshold_;

  StepPlan plan_;
  uint32_t step_ = 0;
  PushSumStats stats_;
  std::atomic<uint64_t> announce_messages_{0};
  // Next-step state, installed after every receiver has merged (Phase B
  // reads other nodes' previous state, so it cannot update in place).
  std::vector<Value> next_;
  std::vector<uint8_t> converged_, stopped_;
  // Consecutive qualifying steps towards the convergence announcement.
  std::vector<uint32_t> streak_;
  // Per-node accounting for the Table 2 metric.
  std::vector<uint64_t> node_sent_;
  std::vector<uint32_t> node_active_steps_;
};

// Runs `state` (one Value per node, updated in place) over `graph` to
// convergence or options.max_steps. `after_step(state)` is called at the
// end of every step. Fails with CheckPushSumOptions's InvalidArgument.
template <typename Policy, typename AfterStep = NoStepHook>
Result<PushSumStats> RunPushSum(const Graph& graph,
                                const GossipOptions& options,
                                const std::vector<uint32_t>& push_counts,
                                Policy& policy,
                                std::vector<typename Policy::Value>& state,
                                ThreadPool& pool,
                                AfterStep&& after_step = AfterStep()) {
  DGT_RETURN_IF_ERROR(CheckPushSumOptions(options));
  PushSumRun<Policy> run(graph.Adjacency(), options, push_counts, policy,
                         state, pool);
  while (!run.Done()) {
    run.Step();
    after_step(state);
  }
  return run.Stats();
}

}  // namespace dgt

#endif  // DGT_GOSSIP_PUSH_SUM_H_
