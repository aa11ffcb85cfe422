// Phase A of the two-phase deterministic gossip step shared by the
// synchronous step loop (PushSumRun in gossip/push_sum.h, which the
// scalar, sparse vector and churn engines drive) and the potential
// tracker.
//
// A synchronous push-sum step factors cleanly into
//   (A) push generation — every active node draws its k_i targets and the
//       per-push loss outcomes; each delivered share becomes a
//       (sender, shares) entry in the receiver's contribution list;
//   (B) merge — every receiver folds its contribution list into its next
//       state and evaluates the convergence predicate.
// Phase B is embarrassingly parallel across receivers once the lists
// exist, PROVIDED each list is reduced in a fixed order. BuildStepPlan
// emits every receiver's list in ascending-sender order with the
// receiver's own kept share sitting at its own sender slot — exactly the
// accumulation order of the historical serial engines — so the merge is
// bit-for-bit identical to the serial run at any thread count.
//
// `shares` counts how many (1/(k+1))-shares of the sender's state the
// entry carries: 1 for a delivered push, and 1 + number of bounced pushes
// for the sender's own kept entry (lost packets and pushes to stopped
// nodes return their share to the sender, preserving mass).

#ifndef DGT_GOSSIP_STEP_PLAN_H_
#define DGT_GOSSIP_STEP_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gossip/options.h"
#include "graph/graph.h"

namespace dgt {

struct PlanEntry {
  NodeId sender;
  uint32_t shares;
};

struct StepPlan {
  // inbox[t]: contribution list of receiver t, ascending-sender order.
  std::vector<std::vector<PlanEntry>> inbox;
  // Pushes each sender transmitted this step (0 for inactive nodes); the
  // denominator of its share split is k_used[i] + 1.
  std::vector<uint32_t> k_used;
  // Distinct other-node senders that delivered to each receiver (the
  // |S| > 1 convergence guard).
  std::vector<uint32_t> senders;
  // Total pushes transmitted (lost / bounced ones included: transmission
  // cost is incurred before the loss is detected).
  uint64_t pushes = 0;

  void Reset(uint32_t num_nodes);
};

// Per-node push counts k_i under `strategy` over the neighbour lists
// `neighbors` (one per node): DifferentialPushCount under differential
// push, 1 everywhere under plain push.
std::vector<uint32_t> PushCounts(
    const std::vector<std::vector<NodeId>>& neighbors, PushStrategy strategy,
    KRounding rounding);

// Draws k = min(push_count, |nbrs|) distinct targets from `nbrs` into
// `targets`: one NextBelow draw when k == 1, else SampleWithoutReplacement.
// Every engine draws its push targets through here, so their RNG
// consumption stays uniform. Precondition: nbrs is non-empty.
void DrawTargets(const std::vector<NodeId>& nbrs, uint32_t push_count,
                 Rng& rng, std::vector<NodeId>& targets);

// Draws one step's push targets and loss outcomes for every active node
// (inactive[i] == 0) over the neighbour lists `neighbors` (one per node)
// and bins the deliveries per receiver. A push to an inactive target, or
// one lost with probability `loss_prob`, bounces back to its sender.
// `rng` is consumed serially in node order; per node, the draw order is
// targets first, then one loss trial per transmitted push (no trials when
// loss_prob == 0) — the historical serial engines' exact RNG consumption
// order, which every synchronous engine shares by drawing through this
// function. Push generation is O(sum k_i), cheap next to the merge that
// follows, so it stays serial and the plan is independent of any thread
// count.
void BuildStepPlan(const std::vector<std::vector<NodeId>>& neighbors,
                   const std::vector<uint32_t>& push_counts,
                   const std::vector<uint8_t>& inactive, double loss_prob,
                   Rng& rng, StepPlan& plan);

}  // namespace dgt

#endif  // DGT_GOSSIP_STEP_PLAN_H_
