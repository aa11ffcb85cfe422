// AsyncEventEngine: the event-driven differential push-sum executor,
// templated over a value policy (gossip/gossip_state.h) and parallelised
// by conservative time-window lookahead.
//
// Determinism contract (the async analogue of the synchronous engines'
// thread-count invariance): results are bit-for-bit identical at every
// num_threads, including 1, because
//   1. every event mutates exactly one owner node's state (a firing its
//      own node, a delivery its receiver, an announcement arrival its
//      receiver); cross-node effects travel only as newly scheduled
//      events;
//   2. the lookahead window [W, W + L) with
//         L = min(link MinLatency, (1 - period_jitter) * push_period)
//      can never receive events scheduled by events inside it — a firing
//      at time t schedules nothing before t + L — so a window's event set
//      is fixed before any of it executes;
//   3. within a window, events are grouped by owner and each group runs
//      serially in (time, seq) order — exactly the serial order projected
//      onto that node — while groups execute concurrently across the
//      thread pool;
//   4. commits are canonical: after the window's barrier, groups are
//      walked in ascending node id, summing counters and pushing the
//      events they generated onto the heap, so heap seq assignment (and
//      with it all future tie-breaks) is a pure function of the event
//      history, never of thread scheduling;
//   5. every random draw comes from a counter-based stream,
//      Rng::StreamAt(node, per-node event counter), a pure function of
//      (seed, node, counter) — no draw order to perturb.
//
// tests/gossip/parallel_equivalence_test.cc asserts EXPECT_EQ on doubles
// and on message/event counts across T in {1, 2, 4, 8} for the scalar and
// sparse policies and the dense reference policy of the tests.

#ifndef DGT_NET_ASYNC_ENGINE_H_
#define DGT_NET_ASYNC_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gossip/options.h"
#include "gossip/step_plan.h"
#include "graph/graph.h"
#include "net/event_queue.h"
#include "net/link_model.h"

namespace dgt {

struct AsyncGossipOptions {
  // Mean interval between a node's consecutive push firings.
  double push_period = 1.0;
  // Each interval is push_period * U[1 - jitter, 1 + jitter].
  double period_jitter = 0.2;
  // Hard cap on simulated time, > 0; the run reports converged=false at
  // cap.
  double max_time = 10000.0;

  PushStrategy strategy = PushStrategy::kDifferential;
  double xi = 1e-4;
  // Qualifying firings in a row before a node announces; at least 1.
  uint32_t convergence_rounds = 5;
  // Per-message loss probability; lost shares bounce to the sender
  // exactly as in the synchronous engines.
  double packet_loss_prob = 0.0;
  uint64_t seed = 1;

  // Worker count for the windowed parallel executor (0 = one per
  // hardware thread). Results are bit-for-bit identical at every value —
  // see the determinism contract above.
  uint32_t num_threads = 1;

  LinkModelOptions link;
};

// Counters shared by every policy instantiation.
struct AsyncEngineStats {
  bool converged = false;  // all nodes stopped with stop times <= max_time
  double sim_time = 0.0;   // when the last node stopped (or max_time)
  uint64_t gossip_messages = 0;
  uint64_t control_messages = 0;
  uint64_t events = 0;  // DES events processed
  // Firings of the slowest node until it stopped — comparable to the
  // synchronous engines' step count.
  uint32_t max_node_firings = 0;
};

template <typename Policy>
struct AsyncEngineResult {
  std::vector<typename Policy::Value> values;  // final node-resident state
  AsyncEngineStats stats;
};

template <typename Policy>
class AsyncEventEngine {
 public:
  // `graph` must outlive the engine.
  AsyncEventEngine(const Graph* graph, AsyncGossipOptions options)
      : graph_(graph), options_(options) {
    assert(graph_ != nullptr);
  }

  // Runs to convergence or options.max_time. `init` holds one value per
  // node. Option validation (xi, convergence_rounds, push_period, jitter,
  // loss, max_time) is the caller's concern only insofar as bad values
  // fail here with InvalidArgument.
  Result<AsyncEngineResult<Policy>> Run(
      std::vector<typename Policy::Value> init) {
    const uint32_t n = graph_->num_nodes();
    if (init.size() != n) {
      return Status::InvalidArgument("init must have num_nodes entries");
    }
    if (!IsValidXi(options_.xi)) {
      return Status::InvalidArgument("xi must be finite and positive");
    }
    // At 0 every node would announce at its first evidence.
    if (options_.convergence_rounds == 0) {
      return Status::InvalidArgument("convergence_rounds must be >= 1");
    }
    // A NaN period puts NaN event times on the heap and leaves the window
    // loop below with an empty window; a NaN jitter fails the
    // `period_jitter > 0.0` test below and silently runs without jitter.
    if (!std::isfinite(options_.push_period) || options_.push_period <= 0.0) {
      return Status::InvalidArgument("push_period must be finite and positive");
    }
    if (!IsProbability(options_.period_jitter) ||
        options_.period_jitter >= 1.0) {
      return Status::InvalidArgument("period_jitter must lie in [0, 1)");
    }
    if (!IsProbability(options_.packet_loss_prob)) {
      return Status::InvalidArgument("packet_loss_prob must lie in [0, 1]");
    }
    // A NaN cap fails the final `last_stop_time <= max_time` test, so even
    // a run that stopped would report converged = false.
    if (!(options_.max_time > 0.0)) {
      return Status::InvalidArgument("max_time must be positive");
    }
    DGT_ASSIGN_OR_RETURN(LinkModel links,
                         LinkModel::Create(n, options_.link));
    // Lookahead width: nothing an in-window event schedules can land
    // earlier than this past the event itself (LinkModel::Create
    // guarantees MinLatency > 0, and period_jitter < 1 keeps the firing
    // interval positive).
    const double lookahead =
        std::min(links.MinLatency(),
                 (1.0 - options_.period_jitter) * options_.push_period);

    const Rng base(options_.seed);
    const double threshold =
        Policy::ConvergenceThreshold(n, options_.xi);

    struct Node {
      typename Policy::Value value;
      typename Policy::Snapshot prev;
      uint64_t rng_counter = 0;
      uint32_t streak = 0;
      uint32_t firings = 0;
      uint32_t received = 0;
      uint32_t idle_firings = 0;
      uint32_t neighbors_converged = 0;
      bool converged = false;
      bool stopped = false;
    };
    std::vector<Node> node(n);
    const std::vector<uint32_t> k = PushCounts(
        graph_->Adjacency(), options_.strategy, KRounding::kRound);
    for (NodeId i = 0; i < n; ++i) {
      node[i].value = std::move(init[i]);
      node[i].prev = Policy::TakeSnapshot(node[i].value);
    }

    AsyncEngineResult<Policy> res;
    AsyncEngineStats& stats = res.stats;
    if (options_.strategy == PushStrategy::kDifferential) {
      stats.control_messages += graph_->DegreeSum();
    }

    uint32_t num_stopped = 0;
    double last_stop_time = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      if (graph_->Degree(i) == 0) {
        node[i].converged = true;
        node[i].stopped = true;
        ++num_stopped;
      }
    }

    enum class Kind : uint8_t { kFire, kDeliver, kAnnounceArrival };
    struct Event {
      Kind kind;
      NodeId owner;  // the one node whose state this event may mutate
      NodeId from = 0;
      bool is_return = false;
      typename Policy::Share share{};
    };
    TimedEventHeap<Event> heap;

    // Per-group output, merged serially in ascending-owner order after
    // each window's barrier.
    struct GroupOut {
      std::vector<std::pair<double, Event>> scheduled;
      uint64_t gossip_messages = 0;
      uint64_t control_messages = 0;
      uint32_t newly_stopped = 0;
      double last_stop_time = 0.0;
    };

    auto maybe_stop = [&](NodeId i, double t, GroupOut& out) {
      if (node[i].stopped || !node[i].converged) return;
      if (node[i].neighbors_converged >= graph_->Degree(i)) {
        node[i].stopped = true;
        ++out.newly_stopped;
        out.last_stop_time = std::max(out.last_stop_time, t);
      }
    };

    auto announce_convergence = [&](NodeId i, double t, Rng& er,
                                    GroupOut& out) {
      node[i].converged = true;
      for (NodeId v : graph_->Neighbors(i)) {
        ++out.control_messages;
        double latency = links.Latency(i, v, er);
        out.scheduled.push_back(
            {t + latency, Event{Kind::kAnnounceArrival, v, i, false, {}}});
      }
    };

    auto execute = [&](const typename TimedEventHeap<Event>::Item& item,
                       GroupOut& out) {
      const double t = item.time;
      const Event& ev = item.payload;
      const NodeId i = ev.owner;
      switch (ev.kind) {
        case Kind::kAnnounceArrival: {
          // Evaluate the stop rule at arrival: a converged node must not
          // keep pushing until its own timer fires.
          ++node[i].neighbors_converged;
          maybe_stop(i, t, out);
          return;
        }
        case Kind::kDeliver: {
          if (!ev.is_return && node[i].stopped) {
            // The receiver has left the gossip: bounce the share back to
            // its sender (one more hop of latency). Returned mass is the
            // sender's own and carries no convergence evidence.
            Rng er = base.StreamAt(i, node[i].rng_counter++);
            double latency = links.Latency(i, ev.from, er);
            out.scheduled.push_back(
                {t + latency,
                 Event{Kind::kDeliver, ev.from, i, true, ev.share}});
            return;
          }
          Policy::Absorb(node[i].value, ev.share);
          if (!ev.is_return) ++node[i].received;
          return;
        }
        case Kind::kFire:
          break;
      }
      // kFire: past the time cap (or once stopped) firings are inert —
      // remaining deliveries only return in-flight mass.
      if (node[i].stopped || t > options_.max_time) return;
      ++node[i].firings;
      Rng er = base.StreamAt(i, node[i].rng_counter++);

      // Convergence evaluation at the node's own cadence.
      typename Policy::Snapshot cur = Policy::TakeSnapshot(node[i].value);
      bool evidence =
          node[i].received >= 1 && Policy::HasWeight(node[i].value);
      if (!node[i].converged) {
        if (evidence) {
          node[i].idle_firings = 0;
          node[i].streak =
              Policy::Distance(node[i].prev, cur) <= threshold
                  ? node[i].streak + 1
                  : 0;
          if (node[i].streak >= options_.convergence_rounds) {
            announce_convergence(i, t, er, out);
          }
        } else {
          // Starvation escape: if every neighbour has announced
          // convergence and nothing has arrived for a long stretch, no
          // information can realistically reach this node any more;
          // adopt the estimate.
          ++node[i].idle_firings;
          if (node[i].neighbors_converged >= graph_->Degree(i) &&
              node[i].idle_firings >= 10) {
            announce_convergence(i, t, er, out);
          }
        }
      }
      node[i].prev = std::move(cur);
      node[i].received = 0;

      maybe_stop(i, t, out);
      if (node[i].stopped) return;

      // Differential push: split into k+1 shares, keep one.
      std::vector<NodeId> targets;
      DrawTargets(graph_->Neighbors(i), k[i], er, targets);
      typename Policy::Share share = Policy::Split(
          node[i].value, static_cast<uint32_t>(targets.size()));
      for (NodeId tgt : targets) {
        ++out.gossip_messages;
        if (options_.packet_loss_prob > 0.0 &&
            er.NextBernoulli(options_.packet_loss_prob)) {
          // Lost share: the mass stays home.
          Policy::Absorb(node[i].value, share);
          continue;
        }
        double latency = links.Latency(i, tgt, er);
        out.scheduled.push_back(
            {t + latency, Event{Kind::kDeliver, tgt, i, false, share}});
      }

      double interval =
          options_.push_period *
          (options_.period_jitter > 0.0
               ? er.NextDouble(1.0 - options_.period_jitter,
                               1.0 + options_.period_jitter)
               : 1.0);
      out.scheduled.push_back(
          {t + interval, Event{Kind::kFire, i, i, false, {}}});
    };

    // Desynchronised start: first firings spread over one period.
    for (NodeId i = 0; i < n; ++i) {
      if (node[i].stopped) continue;
      Rng er = base.StreamAt(i, node[i].rng_counter++);
      heap.Push(er.NextDouble(0.0, options_.push_period),
                Event{Kind::kFire, i, i, false, {}});
    }

    ThreadPool pool(options_.num_threads);

    using Item = typename TimedEventHeap<Event>::Item;
    // Owner -> group index for the current window, epoch-stamped so the
    // reset is O(window) rather than O(n).
    std::vector<uint64_t> stamp(n, 0);
    std::vector<uint32_t> group_of(n, 0);
    uint64_t window_id = 0;
    double final_time = 0.0;

    while (!heap.empty()) {
      const double window_start = heap.NextTime();
      std::vector<Item> window = heap.PopWindow(window_start + lookahead);
      assert(!window.empty());
      stats.events += window.size();
      final_time = window.back().time;

      // Partition by owner, preserving (time, seq) order within a group,
      // then order groups canonically by node id.
      ++window_id;
      std::vector<std::pair<NodeId, std::vector<Item>>> groups;
      for (Item& item : window) {
        const NodeId owner = item.payload.owner;
        if (stamp[owner] != window_id) {
          stamp[owner] = window_id;
          group_of[owner] = static_cast<uint32_t>(groups.size());
          groups.emplace_back(owner, std::vector<Item>());
        }
        groups[group_of[owner]].second.push_back(std::move(item));
      }
      std::sort(groups.begin(), groups.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });

      std::vector<GroupOut> outs(groups.size());
      pool.ParallelFor(groups.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t g = begin; g < end; ++g) {
          for (const Item& item : groups[g].second) {
            execute(item, outs[g]);
          }
        }
      });

      // Canonical commit: ascending node id. Counter sums and heap seq
      // assignment are now pure functions of the event history.
      for (size_t g = 0; g < groups.size(); ++g) {
        GroupOut& out = outs[g];
        stats.gossip_messages += out.gossip_messages;
        stats.control_messages += out.control_messages;
        num_stopped += out.newly_stopped;
        last_stop_time = std::max(last_stop_time, out.last_stop_time);
        for (auto& [time, event] : out.scheduled) {
          heap.Push(time, std::move(event));
        }
      }
    }

    // A run converged iff every node stopped at an event no later than
    // max_time (stops completed only by post-cap announcement deliveries
    // do not count, matching the serial engine's cap check).
    stats.converged = num_stopped == n && last_stop_time <= options_.max_time;
    stats.sim_time = stats.converged
                         ? last_stop_time
                         : std::min(final_time, options_.max_time);
    res.values.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      res.values[i] = std::move(node[i].value);
      stats.max_node_firings =
          std::max(stats.max_node_firings, node[i].firings);
    }
    return res;
  }

 private:
  const Graph* graph_;
  AsyncGossipOptions options_;
};

}  // namespace dgt

#endif  // DGT_NET_ASYNC_ENGINE_H_
