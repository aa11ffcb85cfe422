#include "graph/graph_stats.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

namespace dgt {

uint32_t MaxDegree(const Graph& g) {
  uint32_t m = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) m = std::max(m, g.Degree(u));
  return m;
}

double EstimatePowerLawExponent(const Graph& g, uint32_t d_min) {
  if (d_min == 0) d_min = 1;
  uint64_t n = 0;
  double log_sum = 0.0;
  const double shift = static_cast<double>(d_min) - 0.5;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    uint32_t d = g.Degree(u);
    if (d >= d_min) {
      ++n;
      log_sum += std::log(static_cast<double>(d) / shift);
    }
  }
  if (n == 0 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(n) / log_sum;
}

std::vector<double> ComplementaryCdf(const std::vector<uint32_t>& sample) {
  if (sample.empty()) return {};
  uint32_t max_v = 0;
  for (uint32_t v : sample) max_v = std::max(max_v, v);
  std::vector<uint64_t> count(max_v + 2, 0);
  for (uint32_t v : sample) ++count[v];
  std::vector<double> ccdf(max_v + 1, 0.0);
  uint64_t tail = 0;
  const double n = static_cast<double>(sample.size());
  for (int64_t k = max_v; k >= 0; --k) {
    tail += count[k];
    ccdf[static_cast<size_t>(k)] = static_cast<double>(tail) / n;
  }
  return ccdf;
}

Result<double> PowerLawKsDistance(const std::vector<uint32_t>& sample,
                                  uint32_t k_min, double alpha) {
  if (alpha <= 1.0) return Status::InvalidArgument("alpha must exceed 1");
  if (k_min == 0) k_min = 1;
  // Restrict to the tail k >= k_min and renormalise the empirical CCDF.
  std::vector<uint32_t> tail;
  for (uint32_t v : sample) {
    if (v >= k_min) tail.push_back(v);
  }
  if (tail.empty()) {
    return Status::InvalidArgument("no sample point reaches k_min");
  }
  auto ccdf = ComplementaryCdf(tail);
  // ccdf[k_min] == 1 by construction after the restriction.
  double ks = 0.0;
  for (uint32_t k = k_min; k < ccdf.size(); ++k) {
    double model = std::pow(static_cast<double>(k) / k_min, 1.0 - alpha);
    ks = std::max(ks, std::fabs(ccdf[k] - model));
  }
  return ks;
}

std::vector<uint32_t> ConnectedComponents(const Graph& g) {
  constexpr uint32_t kUnvisited = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> comp(g.num_nodes(), kUnvisited);
  uint32_t next = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] != kUnvisited) continue;
    comp[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      for (NodeId v : g.Neighbors(u)) {
        if (comp[v] == kUnvisited) {
          comp[v] = next;
          queue.push_back(v);
        }
      }
    }
    ++next;
  }
  return comp;
}

bool IsConnected(const Graph& g) {
  const std::vector<uint32_t> comp = ConnectedComponents(g);
  return std::all_of(comp.begin(), comp.end(),
                     [](uint32_t c) { return c == 0; });
}

}  // namespace dgt
