#include "gossip/churn_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/thread_pool.h"
#include "gossip/gossip_state.h"
#include "gossip/step_plan.h"

namespace dgt {

namespace {

// Mutable per-node protocol state (the gossip pair lives in `mass`).
struct NodeState {
  double prev_ratio = 0.0;
  uint32_t streak = 0;
  uint8_t alive = 0;
  uint8_t converged = 0;
  uint8_t stopped = 0;
};

}  // namespace

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
  if (!IsValidXi(gossip_.xi)) {
    return Status::InvalidArgument("xi must be finite and positive");
  }
  if (!IsProbability(gossip_.packet_loss_prob)) {
    return Status::InvalidArgument("packet_loss_prob must lie in [0, 1]");
  }
  if (!IsProbability(churn_.leave_prob) || churn_.leave_prob >= 1.0) {
    return Status::InvalidArgument("leave_prob must lie in [0, 1)");
  }
  if (!std::isfinite(churn_.join_rate) || churn_.join_rate < 0.0) {
    return Status::InvalidArgument("join_rate must be finite and >= 0");
  }

  Rng rng(gossip_.seed);
  Rng churn_rng(churn_.seed);
  ThreadPool pool(gossip_.num_threads);

  // Mutable adjacency seeded from the initial graph.
  std::vector<std::vector<NodeId>> adj(n0);
  for (NodeId u = 0; u < n0; ++u) adj[u] = initial_.Neighbors(u);

  std::vector<NodeState> node(n0);
  // Gossip pairs, merged through the scalar value policy (the count
  // channel stays unused).
  const ScalarGossipPolicy policy(/*use_count=*/false);
  std::vector<ScalarGossipPolicy::Value> mass(n0), merged;
  double total_y = 0.0, total_g = 0.0;
  for (NodeId u = 0; u < n0; ++u) {
    node[u].alive = 1;
    mass[u] = {y0[u], g0[u], 0.0};
    total_y += y0[u];
    total_g += g0[u];
  }

  ChurnGossipResult res;
  // Degree announcements: only differential push needs neighbour degrees.
  if (gossip_.strategy == PushStrategy::kDifferential) {
    res.control_messages += initial_.DegreeSum();
  }

  auto ratio_of = [&](NodeId i) {
    return policy.Ratio(mass[i].y, mass[i].g);
  };
  for (NodeId u = 0; u < n0; ++u) node[u].prev_ratio = ratio_of(u);

  auto depart = [&](NodeId u) {
    // Handover: the leaving node passes its gossip pair to a live
    // neighbour (preferably one still gossiping), or any live node.
    NodeId heir = u;
    for (NodeId v : adj[u]) {
      if (node[v].alive && !node[v].stopped) {
        heir = v;
        break;
      }
    }
    if (heir == u) {
      for (NodeId v : adj[u]) {
        if (node[v].alive) {
          heir = v;
          break;
        }
      }
    }
    if (heir == u) {
      for (NodeId v = 0; v < node.size(); ++v) {
        if (v != u && node[v].alive) {
          heir = v;
          break;
        }
      }
    }
    if (heir != u) {
      ScalarGossipPolicy::Absorb(mass[heir], mass[u]);
      ++res.control_messages;  // the handover message
    }
    // else: last node standing departs with its mass; nothing to do.
    node[u].alive = 0;
    mass[u] = {};
    for (NodeId v : adj[u]) {
      auto& lst = adj[v];
      lst.erase(std::remove(lst.begin(), lst.end(), u), lst.end());
    }
    adj[u].clear();
    ++res.departures;
  };

  auto join = [&]() {
    if (node.size() >= churn_.max_nodes) return;
    // Preferential attachment over the live population.
    std::vector<NodeId> live;
    std::vector<double> weight;
    for (NodeId v = 0; v < node.size(); ++v) {
      if (!node[v].alive) continue;
      live.push_back(v);
      weight.push_back(static_cast<double>(adj[v].size()) + 1.0);
    }
    if (live.empty()) return;
    NodeId id = static_cast<NodeId>(node.size());
    node.push_back(NodeState{});
    adj.emplace_back();
    NodeState& fresh = node.back();
    fresh.alive = 1;
    mass.push_back({churn_rng.NextDouble(), 1.0, 0.0});
    total_y += mass.back().y;
    total_g += 1.0;
    fresh.prev_ratio = mass.back().y;

    uint32_t m = std::min<uint32_t>(churn_.join_edges,
                                    static_cast<uint32_t>(live.size()));
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
    // round restarts: every live node resumes gossiping (the paper reruns
    // gossip rounds as membership changes).
    for (auto& s : node) {
      if (!s.alive) continue;
      s.converged = 0;
      s.stopped = 0;
      s.streak = 0;
    }
  };

  // Two-phase step state (see step_plan.h).
  StepPlan plan;
  std::vector<uint32_t> push_counts;
  // Departed, stopped, or left without neighbours: such a node neither
  // pushes nor accepts pushes (every push target is a live neighbour, so
  // for a target this reduces to "stopped").
  std::vector<uint8_t> inactive;
  uint32_t step = 0;
  uint32_t live_unstopped = n0;

  auto count_unstopped = [&]() {
    uint32_t c = 0;
    for (const auto& s : node) {
      if (s.alive && !s.stopped) ++c;
    }
    return c;
  };

  while (step < gossip_.max_steps) {
    ++step;

    // Churn phase (only while active).
    if (step <= churn_.churn_steps) {
      for (NodeId u = 0; u < node.size(); ++u) {
        if (node[u].alive && churn_rng.NextBernoulli(churn_.leave_prob)) {
          depart(u);
        }
      }
      double expect = churn_.join_rate;
      while (expect >= 1.0) {
        join();
        expect -= 1.0;
      }
      if (expect > 0.0 && churn_rng.NextBernoulli(expect)) join();
      live_unstopped = count_unstopped();
    }

    const uint32_t n = static_cast<uint32_t>(node.size());
    inactive.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      const NodeState& s = node[i];
      inactive[i] = !s.alive || s.stopped || adj[i].empty();
    }
    // k_i over the current overlay.
    push_counts = PushCounts(adj, gossip_.strategy, gossip_.k_rounding);

    // Phase A: draw pushes and bin deliveries per receiver, ascending-
    // sender order.
    BuildStepPlan(adj, push_counts, inactive, gossip_.packet_loss_prob, rng,
                  plan);
    res.gossip_messages += plan.pushes;

    // Phase B: each receiver folds its inbox (ascending-sender order)
    // with the synchronous engines' merge arithmetic; the apply pass
    // installs the result.
    merged.resize(n);
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      ScalarGossipPolicy::Scratch scratch;
      for (size_t i = begin; i < end; ++i) {
        if (inactive[i]) continue;
        policy.Merge(static_cast<NodeId>(i), plan, mass, merged[i], scratch);
      }
    });

    // Apply + convergence evidence.
    std::atomic<uint64_t> announce_messages{0};
    pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t idx = begin; idx < end; ++idx) {
        const NodeId i = static_cast<NodeId>(idx);
        NodeState& s = node[i];
        if (!s.alive || s.stopped) continue;
        if (adj[i].empty()) {
          // Churn isolated this node: it can never hear anything again.
          if (!s.converged) s.converged = 1;
          s.stopped = 1;
          continue;
        }
        mass[i] = merged[i];
        const double r = ratio_of(i);
        if (!s.converged) {
          if (plan.senders[i] >= 1 && mass[i].g != 0.0) {
            s.streak =
                std::fabs(r - s.prev_ratio) <= gossip_.xi ? s.streak + 1 : 0;
          }
          if (s.streak >= gossip_.convergence_rounds) {
            s.converged = 1;
            announce_messages.fetch_add(adj[i].size(),
                                        std::memory_order_relaxed);
          }
        }
        s.prev_ratio = r;
      }
    });
    res.control_messages += announce_messages.load(std::memory_order_relaxed);

    // Starvation escape + stop rule (membership-aware).
    for (NodeId i = 0; i < n; ++i) {
      NodeState& s = node[i];
      if (!s.alive || s.stopped) continue;
      bool all_stopped = true, all_converged = true;
      for (NodeId v : adj[i]) {
        if (!node[v].stopped) all_stopped = false;
        if (!node[v].converged) all_converged = false;
      }
      if (!s.converged && all_stopped && !adj[i].empty()) {
        s.converged = 1;
        res.control_messages += adj[i].size();
      }
      if (s.converged && all_converged) s.stopped = 1;
    }

    live_unstopped = count_unstopped();
    if (step > churn_.churn_steps && live_unstopped == 0) break;
  }

  const uint32_t n = static_cast<uint32_t>(node.size());
  res.steps = step;
  res.converged = (live_unstopped == 0);
  res.expected_ratio = total_g > 0.0 ? total_y / total_g : 0.0;
  res.ratios.assign(n, 0.0);
  res.alive.assign(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    res.alive[i] = node[i].alive;
    res.ratios[i] = ratio_of(i);
    if (node[i].alive) ++res.live_count;
  }
  return res;
}

}  // namespace dgt
