#include "baselines/power_trust.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dgt {

Result<PowerTrustResult> ComputePowerTrust(const TrustMatrix& trust,
                                           const PowerTrustOptions& options) {
  const uint32_t n = trust.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty trust matrix");
  if (options.num_power_nodes == 0) {
    return Status::InvalidArgument("need at least one power node");
  }
  if (options.power_weight < 1.0) {
    return Status::InvalidArgument("power_weight must be >= 1");
  }
  if (!(options.damping >= 0.0 && options.damping <= 1.0)) {
    return Status::InvalidArgument("damping must lie in [0,1]");
  }

  std::vector<double> row_sum(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [j, t] : trust.Row(i)) row_sum[i] += t;
  }

  PowerTrustResult res;
  res.scores.assign(n, 1.0 / static_cast<double>(n));
  const uint32_t m = std::min(options.num_power_nodes, n);
  const double a = options.damping;
  const double uniform = 1.0 / static_cast<double>(n);

  std::vector<double> next(n);
  std::vector<uint8_t> is_power(n, 0);

  // One damped power-iteration sweep with the given per-node boost;
  // returns the L1 change.
  auto sweep = [&]() {
    std::fill(next.begin(), next.end(), 0.0);
    double boosted_total = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      double mass =
          res.scores[i] * (is_power[i] ? options.power_weight : 1.0);
      boosted_total += mass;
      if (row_sum[i] > 0.0) {
        for (const auto& [j, t] : trust.Row(i)) {
          next[j] += mass * (t / row_sum[i]);
        }
      } else {
        // Opinion-less voters spread their mass uniformly.
        double share = mass / static_cast<double>(n);
        for (NodeId j = 0; j < n; ++j) next[j] += share;
      }
    }
    double l1 = 0.0;
    for (NodeId j = 0; j < n; ++j) {
      next[j] = (1.0 - a) * (next[j] / boosted_total) + a * uniform;
      l1 += std::fabs(next[j] - res.scores[j]);
    }
    res.scores.swap(next);
    ++res.iterations;
    return l1;
  };

  auto select_power = [&]() {
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + m, order.end(),
                      [&](NodeId x, NodeId y) {
                        if (res.scores[x] != res.scores[y]) {
                          return res.scores[x] > res.scores[y];
                        }
                        return x < y;
                      });
    return std::vector<NodeId>(order.begin(), order.begin() + m);
  };

  // Phase 1: converge the unboosted walk to identify the power nodes
  // (the system bootstraps power nodes from the previous round's
  // reputation). Phase 2: converge with the fixed power set boosted —
  // reselecting each sweep would let borderline nodes oscillate in and
  // out of the set and never settle.
  const uint32_t half = std::max(options.max_iterations / 2, 1u);
  bool phase1_done = false;
  for (uint32_t it = 0; it < half; ++it) {
    if (sweep() <= options.tolerance) {
      phase1_done = true;
      break;
    }
  }
  res.power_nodes = select_power();
  for (NodeId p : res.power_nodes) is_power[p] = 1;
  res.converged = false;
  while (res.iterations < options.max_iterations) {
    if (sweep() <= options.tolerance) {
      res.converged = true;
      break;
    }
  }
  (void)phase1_done;
  res.power_nodes = select_power();
  return res;
}

}  // namespace dgt
