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
//   3. within a window, events are sorted into per-owner groups and each
//      group runs serially in (time, seq) order — exactly the serial order
//      projected onto that node — while shards of consecutive groups
//      execute concurrently across the thread pool;
//   4. commits are canonical: after the window's barrier, the shards'
//      outputs are committed in shard order, which is ascending node id,
//      summing counters and pushing the events they generated onto the
//      heap, so heap seq assignment (and with it all future tie-breaks) is
//      a pure function of the event history, never of thread scheduling;
//   5. every random draw comes from a counter-based stream,
//      Rng::StreamAt(node, per-node event counter), a pure function of
//      (seed, node, counter) — no draw order to perturb.
//
// tests/gossip/parallel_equivalence_test.cc asserts EXPECT_EQ on doubles
// and on message/event counts across T in {1, 2, 4, 8} for the scalar and
// vector policies and the dense reference policy of the tests, and on a
// run whose shares all land at one instant, where only point 4 orders
// them.

#ifndef DGT_NET_ASYNC_ENGINE_H_
#define DGT_NET_ASYNC_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <tuple>
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
    // A NaN period puts NaN event times on the heap; a NaN jitter fails
    // the `period_jitter > 0.0` test below and silently runs without
    // jitter.
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

    // Per-shard output, merged serially in shard order (ascending-owner
    // order: a shard runs consecutive owner groups) after each barrier.
    struct ShardOut {
      std::vector<std::pair<double, Event>> scheduled;
      uint64_t gossip_messages = 0;
      uint64_t control_messages = 0;
      uint32_t newly_stopped = 0;
      double last_stop_time = 0.0;
    };

    auto maybe_stop = [&](NodeId i, double t, ShardOut& out) {
      if (node[i].stopped || !node[i].converged) return;
      if (node[i].neighbors_converged >= graph_->Degree(i)) {
        node[i].stopped = true;
        ++out.newly_stopped;
        out.last_stop_time = std::max(out.last_stop_time, t);
      }
    };

    auto announce_convergence = [&](NodeId i, double t, Rng& er,
                                    ShardOut& out) {
      node[i].converged = true;
      for (NodeId v : graph_->Neighbors(i)) {
        ++out.control_messages;
        double latency = links.Latency(i, v, er);
        out.scheduled.push_back(
            {t + latency, Event{Kind::kAnnounceArrival, v, i, false, {}}});
      }
    };

    auto execute = [&](const typename TimedEventHeap<Event>::Item& item,
                       ShardOut& out) {
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
    // Reused by every window: its events sorted by owner, where each
    // owner's group starts (then the window's end), and the shard outputs.
    std::vector<Item> window;
    std::vector<size_t> group_start;
    std::vector<ShardOut> outs;
    // A shard runs the consecutive groups [begin, end), one window range.
    const std::function<void(size_t, size_t, size_t)> run_shard =
        [&](size_t shard, size_t begin, size_t end) {
          for (size_t e = group_start[begin]; e < group_start[end]; ++e) {
            execute(window[e], outs[shard]);
          }
        };
    double final_time = 0.0;

    while (!heap.empty()) {
      heap.PopWindow(heap.NextTime() + lookahead, &window);
      stats.events += window.size();
      final_time = window.back().time;

      // Group by owner in ascending node id, keeping (time, seq) order
      // within each group.
      std::sort(window.begin(), window.end(), [](const Item& a, const Item& b) {
        return std::tie(a.payload.owner, a.time, a.seq) <
               std::tie(b.payload.owner, b.time, b.seq);
      });
      group_start.clear();
      for (size_t e = 0; e < window.size(); ++e) {
        if (e == 0 || window[e].payload.owner != window[e - 1].payload.owner) {
          group_start.push_back(e);
        }
      }
      const size_t groups = group_start.size();
      group_start.push_back(window.size());

      const size_t shards = pool.NumShards(groups);
      if (outs.size() < shards) outs.resize(shards);
      pool.ParallelFor(groups, run_shard);

      // Canonical commit: shard order, which is ascending node id. Counter
      // sums and heap seq assignment are pure functions of the event
      // history. Each output is left empty for the next window.
      for (size_t s = 0; s < shards; ++s) {
        ShardOut& out = outs[s];
        stats.gossip_messages += std::exchange(out.gossip_messages, 0);
        stats.control_messages += std::exchange(out.control_messages, 0);
        num_stopped += std::exchange(out.newly_stopped, 0);
        last_stop_time =
            std::max(last_stop_time, std::exchange(out.last_stop_time, 0.0));
        for (auto& [time, event] : out.scheduled) {
          heap.Push(time, std::move(event));
        }
        out.scheduled.clear();
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
