#include "net/link_model.h"

#include <cmath>
#include <limits>
#include <string>

namespace dgt {

Result<LinkModel> LinkModel::Create(uint32_t num_nodes,
                                    const LinkModelOptions& options) {
  // An infinite latency puts infinite event times on the engines' heap,
  // and a NaN jitter fails `jitter > 0` below and runs as no jitter.
  for (double v : {options.access_latency_min, options.access_latency_max,
                   options.backbone_latency, options.jitter}) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::InvalidArgument(
          "latencies must be finite and non-negative");
    }
  }
  if (options.access_latency_max < options.access_latency_min) {
    return Status::InvalidArgument("bad access latency range");
  }
  Rng rng(options.seed);
  std::vector<double> access(num_nodes);
  for (auto& a : access) {
    a = rng.NextDouble(options.access_latency_min,
                       options.access_latency_max);
  }

  // The cheapest possible link: backbone plus the two smallest access
  // latencies (distinct endpoints). Jitter never subtracts, so this is a
  // true lower bound on every message's latency.
  double min_latency = std::numeric_limits<double>::infinity();
  NodeId cheapest_u = 0, cheapest_v = 0;
  if (num_nodes >= 2) {
    NodeId first = access[0] <= access[1] ? 0 : 1;
    NodeId second = access[0] <= access[1] ? 1 : 0;
    for (NodeId u = 2; u < num_nodes; ++u) {
      if (access[u] < access[first]) {
        second = first;
        first = u;
      } else if (access[u] < access[second]) {
        second = u;
      }
    }
    cheapest_u = first;
    cheapest_v = second;
    min_latency = access[first] + options.backbone_latency + access[second];
    if (!(min_latency > 0.0)) {
      return Status::InvalidArgument(
          "link model admits a zero-latency link " +
          std::to_string(cheapest_u) + " -> " + std::to_string(cheapest_v) +
          " (access " + std::to_string(access[cheapest_u]) + " + backbone " +
          std::to_string(options.backbone_latency) + " + access " +
          std::to_string(access[cheapest_v]) +
          "): the event-driven engines' conservative lookahead needs a "
          "positive latency lower bound — raise access_latency_min or "
          "backbone_latency");
    }
  }
  return LinkModel(std::move(access), options, min_latency);
}

double LinkModel::Latency(NodeId u, NodeId v, Rng& rng) const {
  double jitter =
      options_.jitter > 0.0 ? rng.NextDouble(0.0, options_.jitter) : 0.0;
  return access_[u] + options_.backbone_latency + access_[v] + jitter;
}

}  // namespace dgt
