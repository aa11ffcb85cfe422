#include "gossip/spreading.h"

#include <algorithm>
#include <vector>

#include "gossip/step_plan.h"
#include "graph/graph_stats.h"

namespace dgt {

Result<SpreadingResult> SpreadRumor(const Graph& graph, NodeId source,
                                    SpreadProtocol protocol,
                                    uint32_t max_rounds, Rng& rng) {
  const uint32_t n = graph.num_nodes();
  if (source >= n) {
    return Status::InvalidArgument("source node out of range");
  }

  std::vector<uint8_t> informed(n, 0), next(n, 0);
  informed[source] = 1;
  uint32_t count = 1;
  // Only the source's connected component can ever be informed.
  const std::vector<uint32_t> component = ConnectedComponents(graph);
  const uint32_t reachable = static_cast<uint32_t>(
      std::count(component.begin(), component.end(), component[source]));

  // Differential push counts are degree-based and static.
  const std::vector<uint32_t> k =
      PushCounts(graph.Adjacency(),
                 protocol == SpreadProtocol::kDifferentialPush
                     ? PushStrategy::kDifferential
                     : PushStrategy::kUniform,
                 KRounding::kRound);
  std::vector<NodeId> targets;

  const bool do_push = protocol == SpreadProtocol::kPush ||
                       protocol == SpreadProtocol::kDifferentialPush ||
                       protocol == SpreadProtocol::kPushPull;
  const bool do_pull = protocol == SpreadProtocol::kPull ||
                       protocol == SpreadProtocol::kPushPull;

  SpreadingResult res;
  while (count < reachable && res.rounds < max_rounds) {
    ++res.rounds;
    std::copy(informed.begin(), informed.end(), next.begin());

    if (do_push) {
      for (NodeId u = 0; u < n; ++u) {
        if (!informed[u]) continue;
        if (graph.Degree(u) == 0) continue;
        DrawTargets(graph.Neighbors(u), k[u], rng, targets);
        for (NodeId t : targets) next[t] = 1;
        res.messages += targets.size();
      }
    }
    if (do_pull) {
      for (NodeId u = 0; u < n; ++u) {
        if (informed[u]) continue;
        const auto& nbrs = graph.Neighbors(u);
        if (nbrs.empty()) continue;
        NodeId t = nbrs[rng.NextBelow(nbrs.size())];
        ++res.messages;  // the pull request
        if (informed[t]) next[u] = 1;
      }
    }

    informed.swap(next);
    count = 0;
    for (uint8_t f : informed) count += f;
  }

  res.completed = (count == n);
  res.informed = count;
  return res;
}

}  // namespace dgt
