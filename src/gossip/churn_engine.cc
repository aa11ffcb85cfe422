#include "gossip/churn_engine.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/push_sum.h"
#include "gossip/step_plan.h"

namespace dgt {

ChurnPushSum::ChurnPushSum(const Graph& initial, GossipOptions gossip,
                           ChurnOptions churn)
    : initial_(initial), gossip_(gossip), churn_(churn) {}

Result<ChurnGossipResult> ChurnPushSum::Run(const std::vector<double>& y0,
                                            const std::vector<double>& g0) {
  const uint32_t n0 = initial_.num_nodes();
  if (y0.size() != n0 || g0.size() != n0) {
    return Status::InvalidArgument("y0/g0 must match the initial graph");
  }
  for (double g : g0) {
    if (g < 0.0) return Status::InvalidArgument("gossip weights must be >= 0");
  }
  DGT_RETURN_IF_ERROR(CheckPushSumOptions(gossip_));
  if (!IsProbability(churn_.leave_prob) || churn_.leave_prob >= 1.0) {
    return Status::InvalidArgument("leave_prob must lie in [0, 1)");
  }
  if (!std::isfinite(churn_.join_rate) || churn_.join_rate < 0.0) {
    return Status::InvalidArgument("join_rate must be finite and >= 0");
  }

  Rng churn_rng(churn_.seed);
  ThreadPool pool(gossip_.num_threads);

  // The live overlay, seeded from the initial graph; a departed node keeps
  // its id with an empty neighbour list.
  std::vector<std::vector<NodeId>> adj = initial_.Adjacency();
  std::vector<uint8_t> alive(n0, 1);
  // Gossip pairs, merged through the scalar value policy (the count
  // channel stays unused).
  ScalarGossipPolicy policy(/*use_count=*/false);
  std::vector<ScalarGossipPolicy::Value> mass(n0);
  double total_y = 0.0, total_g = 0.0;
  for (NodeId u = 0; u < n0; ++u) {
    mass[u] = {y0[u], g0[u], 0.0};
    total_y += y0[u];
    total_g += g0[u];
  }
  // k_i over the current overlay, recomputed after every churn phase.
  std::vector<uint32_t> push_counts =
      PushCounts(adj, gossip_.strategy, gossip_.k_rounding);
  PushSumRun<ScalarGossipPolicy> run(adj, gossip_, push_counts, policy, mass,
                                     pool);

  ChurnGossipResult res;

  auto depart = [&](NodeId u) {
    // Handover: the leaving node passes its gossip pair to a neighbour
    // still gossiping, else to any neighbour (neighbour lists hold live
    // nodes only), else to the first live node.
    const auto& nbrs = adj[u];
    const auto gossiping = std::find_if(
        nbrs.begin(), nbrs.end(), [&](NodeId v) { return !run.stopped(v); });
    NodeId heir = u;
    if (gossiping != nbrs.end()) {
      heir = *gossiping;
    } else if (!nbrs.empty()) {
      heir = nbrs.front();
    }
    for (NodeId v = 0; heir == u && v < alive.size(); ++v) {
      if (v != u && alive[v]) heir = v;
    }
    if (heir != u) {
      ScalarGossipPolicy::Absorb(mass[heir], mass[u]);
      ++res.control_messages;  // the handover message
    }
    // else: last node standing departs with its mass; nothing to do.
    alive[u] = 0;
    mass[u] = {};
    for (NodeId v : adj[u]) {
      auto& lst = adj[v];
      lst.erase(std::remove(lst.begin(), lst.end(), u), lst.end());
      if (lst.empty()) run.Retire(v);
    }
    adj[u].clear();
    run.Retire(u);
    ++res.departures;
  };

  // Returns false when no node could join: capacity is reached or nobody
  // is left to attach to.
  auto join = [&]() {
    if (alive.size() >= churn_.max_nodes) return false;
    // Preferential attachment over the live population.
    std::vector<NodeId> live;
    std::vector<double> weight;
    for (NodeId v = 0; v < alive.size(); ++v) {
      if (!alive[v]) continue;
      live.push_back(v);
      weight.push_back(static_cast<double>(adj[v].size()) + 1.0);
    }
    if (live.empty()) return false;
    const NodeId id = static_cast<NodeId>(alive.size());
    alive.push_back(1);
    adj.emplace_back();
    mass.push_back({churn_rng.NextDouble(), 1.0, 0.0});
    run.AddNode();
    total_y += mass.back().y;
    total_g += 1.0;

    const uint32_t m =
        std::min<uint32_t>(kJoinEdges, static_cast<uint32_t>(live.size()));
    std::vector<NodeId> chosen;
    while (chosen.size() < m) {
      NodeId t = live[churn_rng.NextDiscrete(weight)];
      if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
        chosen.push_back(t);
      }
    }
    for (NodeId t : chosen) {
      adj[id].push_back(t);
      adj[t].push_back(id);
    }
    res.control_messages += 2ull * m;  // joining handshakes + degree push
    ++res.arrivals;
    // An arrival changes the quantity being averaged (fresh mass), so the
    // round restarts: every node with neighbours resumes gossiping (the
    // paper reruns gossip rounds as membership changes).
    run.Restart();
    return true;
  };

  // Whole joins per step, then one Bernoulli trial for the fraction.
  const double whole_joins = std::floor(churn_.join_rate);
  const double join_fraction = churn_.join_rate - whole_joins;

  // Churn is active for the first churn_steps steps; after that the run
  // ends once every node has stopped.
  while (run.steps() < gossip_.max_steps &&
         (run.steps() <= churn_.churn_steps || !run.AllStopped())) {
    if (run.steps() < churn_.churn_steps) {
      for (NodeId u = 0; u < alive.size(); ++u) {
        if (alive[u] && churn_rng.NextBernoulli(churn_.leave_prob)) {
          depart(u);
        }
      }
      for (double j = 0.0; j < whole_joins; ++j) {
        if (!join()) break;
      }
      if (join_fraction > 0.0 && churn_rng.NextBernoulli(join_fraction)) {
        join();
      }
      push_counts = PushCounts(adj, gossip_.strategy, gossip_.k_rounding);
    }
    run.Step();
  }

  const PushSumStats stats = run.Stats();
  const uint32_t n = static_cast<uint32_t>(alive.size());
  res.steps = stats.steps;
  res.converged = stats.converged;
  res.gossip_messages = stats.gossip_messages;
  res.control_messages += stats.control_messages;
  res.expected_ratio = total_g > 0.0 ? total_y / total_g : 0.0;
  res.ratios.assign(n, 0.0);
  res.alive = alive;
  for (NodeId i = 0; i < n; ++i) {
    res.ratios[i] = policy.Ratio(mass[i].y, mass[i].g);
    if (alive[i]) ++res.live_count;
  }
  return res;
}

}  // namespace dgt
