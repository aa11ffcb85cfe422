#include "baselines/eigen_trust.h"

#include <algorithm>
#include <cmath>

namespace dgt {

Result<EigenTrustResult> ComputeEigenTrust(const TrustMatrix& trust,
                                           const EigenTrustOptions& options) {
  const uint32_t n = trust.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty trust matrix");
  if (!(options.damping >= 0.0 && options.damping <= 1.0)) {
    return Status::InvalidArgument("damping must lie in [0,1]");
  }
  for (NodeId p : options.pretrusted) {
    if (p >= n) return Status::OutOfRange("pre-trusted peer out of range");
  }

  // Restart distribution p.
  std::vector<double> p(n, 0.0);
  if (options.pretrusted.empty()) {
    for (auto& v : p) v = 1.0 / static_cast<double>(n);
  } else {
    double share = 1.0 / static_cast<double>(options.pretrusted.size());
    for (NodeId id : options.pretrusted) p[id] += share;
  }

  // Row-normalized local trust C; rows without opinions fall back to p.
  std::vector<double> row_sum(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [j, t] : trust.Row(i)) row_sum[i] += t;
  }

  EigenTrustResult res;
  res.scores = p;  // start from the restart distribution
  std::vector<double> next(n);
  const double a = options.damping;
  for (uint32_t it = 0; it < options.max_iterations; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (NodeId i = 0; i < n; ++i) {
      double mass = res.scores[i];
      if (mass == 0.0) continue;
      if (row_sum[i] > 0.0) {
        for (const auto& [j, t] : trust.Row(i)) {
          next[j] += mass * (t / row_sum[i]);
        }
      } else {
        // Nodes with no opinions delegate their vote to p.
        for (NodeId j = 0; j < n; ++j) next[j] += mass * p[j];
      }
    }
    double l1 = 0.0;
    for (NodeId j = 0; j < n; ++j) {
      next[j] = (1.0 - a) * next[j] + a * p[j];
      l1 += std::fabs(next[j] - res.scores[j]);
    }
    res.scores.swap(next);
    ++res.iterations;
    if (l1 <= options.tolerance) {
      res.converged = true;
      break;
    }
  }
  return res;
}

}  // namespace dgt
