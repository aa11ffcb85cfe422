#include "gossip/potential.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "gossip/step_plan.h"

namespace dgt {

Result<PotentialTrace> TrackPotential(const Graph& graph,
                                      PushStrategy strategy, uint32_t steps,
                                      Rng& rng, uint32_t num_threads) {
  const uint32_t n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");

  ThreadPool pool(num_threads);

  // The engines' push generation (serial draws from `rng`, no loss);
  // isolated nodes are inactive.
  const std::vector<uint32_t> k =
      PushCounts(graph.Adjacency(), strategy, KRounding::kRound);
  std::vector<uint8_t> isolated(n);
  for (NodeId u = 0; u < n; ++u) isolated[u] = graph.Degree(u) == 0;

  // c[j*n + i] = contribution of node i's initial mass held at node j.
  const size_t nn = static_cast<size_t>(n) * n;
  std::vector<double> c(nn, 0.0), in(nn, 0.0);
  for (uint32_t i = 0; i < n; ++i) c[static_cast<size_t>(i) * n + i] = 1.0;

  // psi = sum over rows j of sum_i (c_{j,i} - g_j/N)^2; per-row partials
  // are computed sharded and reduced in row order, so the value is a pure
  // function of the state (thread-count invariant).
  std::vector<double> row_psi(n);
  auto potential = [&]() {
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        const size_t row = j * n;
        double gj = 0.0;
        for (uint32_t i = 0; i < n; ++i) gj += c[row + i];
        const double target = gj / static_cast<double>(n);
        double psi = 0.0;
        for (uint32_t i = 0; i < n; ++i) {
          double d = c[row + i] - target;
          psi += d * d;
        }
        row_psi[j] = psi;
      }
    });
    double psi = 0.0;
    for (uint32_t j = 0; j < n; ++j) psi += row_psi[j];
    return psi;
  };

  PotentialTrace trace;
  trace.psi.reserve(steps + 1);
  trace.psi.push_back(potential());  // = N - 1 exactly at n = 0

  // Per receiver row, the contributing source rows in ascending-sender
  // order with the kept share at the sender's own slot (step_plan.h).
  StepPlan plan;
  for (uint32_t m = 0; m < steps; ++m) {
    BuildStepPlan(graph.Adjacency(), k, isolated, /*loss_prob=*/0.0, rng, plan);

    // Phase B: every receiver row accumulates its contributions in
    // ascending-sender order; rows are independent, so they shard. An
    // isolated node's row carries over intact.
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        const size_t row = r * n;
        if (isolated[r]) {
          std::copy(c.begin() + row, c.begin() + row + n, in.begin() + row);
          continue;
        }
        std::fill(in.begin() + row, in.begin() + row + n, 0.0);
        for (const PlanEntry& e : plan.inbox[r]) {
          const double scale =
              static_cast<double>(e.shares) /
              (static_cast<double>(plan.k_used[e.sender]) + 1.0);
          const size_t srow = static_cast<size_t>(e.sender) * n;
          for (uint32_t i = 0; i < n; ++i) {
            in[row + i] += c[srow + i] * scale;
          }
        }
      }
    });
    c.swap(in);
    trace.psi.push_back(potential());
  }

  // Uniformity metric: max over j of max_i |c_{j,i}/||c_j||_1 - 1/N|.
  double worst = 0.0;
  for (uint32_t j = 0; j < n; ++j) {
    const size_t row = static_cast<size_t>(j) * n;
    double l1 = 0.0;
    for (uint32_t i = 0; i < n; ++i) l1 += std::fabs(c[row + i]);
    if (l1 <= 0.0) continue;
    for (uint32_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::fabs(c[row + i] / l1 -
                                        1.0 / static_cast<double>(n)));
    }
  }
  trace.final_max_relative_deviation = worst;
  return trace;
}

}  // namespace dgt
