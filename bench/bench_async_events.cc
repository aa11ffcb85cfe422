// Event-driven engine throughput and determinism: GCLR variant 4 (one
// dense row per node) over the asynchronous link-model engine at
// T ∈ {1, 8} worker threads. The engine is bit-for-bit thread-count
// invariant, so every count column (events, gossip/control messages, max
// firings) and the convergence sim-time must be IDENTICAL across the
// threads rows of one configuration — CI gates them against a committed
// baseline (ci/bench_baselines/BENCH_async_events.json) where only
// wall-clock and the derived events/s rate are advisory.
//
// Flags: --smoke trims to the CI configuration; --out_dir=PATH redirects
// CSV/JSON output (default ./dgt_results, or $DGT_OUT_DIR).

#include <cstring>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "reputation/aggregation.h"

int main(int argc, char** argv) {
  using namespace dgt;
  bench_util::InitOutputDir(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<uint32_t> sizes = {200, 500, 1000};
  if (smoke) sizes = {200};
  const std::vector<uint32_t> thread_points = {1, 8};

  bench_util::BenchJsonWriter json("async_events");
  TableWriter table(
      "== Async event engine: GCLR variant 4, event-driven, T in {1, 8} "
      "==");
  table.SetHeader({"N", "threads", "events", "gossip msgs", "control msgs",
                   "sim time", "events/s", "wall ms"});

  for (uint32_t n : sizes) {
    Graph g = bench_util::MustMakePaGraph(n, 2, 42);
    TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
    for (uint32_t threads : thread_points) {
      AsyncAggregationOptions o;
      o.gossip.xi = 1e-3;
      o.gossip.seed = 3;
      o.gossip.num_threads = threads;
      bench_util::WallTimer timer;
      auto r = AggregateGclrVectorAsync(g, t, o);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      const double ms = timer.ElapsedMs();
      const double events_per_sec =
          ms > 0.0 ? static_cast<double>(r->stats.events) / (ms / 1000.0)
                   : 0.0;
      if (!r->stats.converged) {
        std::cerr << "async GCLR did not converge at n=" << n << "\n";
        return 1;
      }
      table.AddRow({std::to_string(n), std::to_string(threads),
                    std::to_string(r->stats.events),
                    std::to_string(r->stats.gossip_messages),
                    std::to_string(r->stats.control_messages),
                    FormatDouble(r->stats.sim_time, 2),
                    FormatDouble(events_per_sec, 0), FormatDouble(ms, 1)});
      json.AddPoint(
          {{"n", static_cast<double>(n)},
           {"threads", static_cast<double>(threads)},
           {"event_count", static_cast<double>(r->stats.events)},
           {"gossip_messages", static_cast<double>(r->stats.gossip_messages)},
           {"control_messages",
            static_cast<double>(r->stats.control_messages)},
           {"max_firings_count",
            static_cast<double>(r->stats.max_node_firings)},
           {"convergence_sim_time", r->stats.sim_time},
           {"events_per_sec", events_per_sec},
           {"wall_ms", ms}});
    }
  }
  bench_util::Emit(table, "async_events.csv");
  json.Write();
  std::cout << "shape check: every count column and the sim-time are "
               "identical between the\nthreads rows of one N (the engine "
               "is bit-for-bit thread-count invariant);\nonly events/s "
               "and wall ms move with the worker count.\n";
  return 0;
}
