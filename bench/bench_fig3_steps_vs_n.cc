// Reproduces Fig. 3: gossip step counts for different network sizes N and
// error bounds xi, differential push versus normal push. The paper's
// claim: differential push's step count grows much more slowly with N
// than normal push gossip.
//
// A second sweep runs the paper's headline configuration — variant 4,
// GCLR of all nodes at all observers — through SparseVectorPushSum on
// sparse trust (~20 opinions per node). Rows go in and come out sparse,
// but each node gossips one dense row of N columns (24 B per column), so
// memory grows as N^2: the table reports the process's peak RSS next to
// the peak count of nonzero entries, which no longer measures bytes.
//
// Flags: --smoke trims both sweeps to seconds (the CI configuration);
// --large adds the N = 10,000 variant-4 point (minutes, a few GB);
// --threads=T re-runs each variant-4 point with a T-worker pool next to
// the 1-thread run (identical step/message counts — the engines are
// thread-count invariant — so the columns isolate pure wall-clock);
// --out_dir=PATH redirects the CSV/JSON output (default ./dgt_results,
// or $DGT_OUT_DIR). Each point also lands in BENCH_fig3_steps_vs_n.json.

#include <algorithm>
#include <cstring>
#include <iostream>

#include "bench_util.h"
#include "gossip/scalar_engine.h"
#include "reputation/aggregation.h"

int main(int argc, char** argv) {
  using namespace dgt;
  using bench_util::MustMakePaGraph;
  using bench_util::RandomUnitValues;

  bench_util::InitOutputDir(argc, argv);
  bool smoke = false, large = false;
  bool threads_given = false;
  uint32_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--large") == 0) large = true;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int v = std::atoi(argv[i] + 10);
      if (v <= 0 || v > 1024) {
        std::cerr << "--threads must lie in [1, 1024]\n";
        return 1;
      }
      threads = static_cast<uint32_t>(v);
      threads_given = true;
    }
  }

  std::vector<uint32_t> sizes = {100, 500, 1000, 10000, 50000};
  std::vector<double> xis = {1e-2, 1e-3, 1e-4, 1e-5};
  if (smoke) {
    sizes = {100, 500};
    xis = {1e-2, 1e-3};
  }

  bench_util::BenchJsonWriter json("fig3_steps_vs_n");

  TableWriter table(
      "== Fig. 3: gossip steps to convergence (differential vs normal "
      "push) ==");
  table.SetHeader({"N", "xi", "diff steps", "push steps", "speedup"});

  for (uint32_t n : sizes) {
    Graph g = MustMakePaGraph(n, 2, 42);
    auto y0 = RandomUnitValues(n, 7);
    std::vector<double> g0(n, 1.0);
    for (double xi : xis) {
      uint32_t steps[2] = {0, 0};
      double ms[2] = {0.0, 0.0};
      int idx = 0;
      for (auto strat :
           {PushStrategy::kDifferential, PushStrategy::kUniform}) {
        GossipOptions o;
        o.strategy = strat;
        o.xi = xi;
        o.seed = 3;
        ScalarPushSum engine(&g, o);
        bench_util::WallTimer timer;
        auto r = engine.Run(y0, g0);
        if (!r.ok()) {
          std::cerr << r.status().ToString() << "\n";
          return 1;
        }
        ms[idx] = timer.ElapsedMs();
        steps[idx++] = r->steps;
      }
      table.AddRow({std::to_string(n), FormatDouble(xi, 5),
                    std::to_string(steps[0]), std::to_string(steps[1]),
                    FormatDouble(static_cast<double>(steps[1]) /
                                     std::max(steps[0], 1u),
                                 2)});
      json.AddPoint({{"n", static_cast<double>(n)},
                     {"xi", xi},
                     {"diff_steps", static_cast<double>(steps[0])},
                     {"push_steps", static_cast<double>(steps[1])},
                     {"diff_ms", ms[0]},
                     {"push_ms", ms[1]}});
    }
  }
  bench_util::Emit(table, "fig3_steps_vs_n.csv");
  std::cout << "shape check (paper Fig. 3): differential step counts grow "
               "slowly with N;\nnormal push blows up at large N, so the "
               "speedup column rises with N.\n\n";

  // Variant 4 at scale, vector engine (AggregationOptions defaults).
  std::vector<uint32_t> gclr_sizes = {500, 1000, 2000, 5000};
  if (smoke) gclr_sizes = {200};
  if (large) gclr_sizes.push_back(10000);
  // Thread points per size: always the 1-thread reference; with
  // --threads=T also the T-thread run. Smoke without an explicit
  // --threads defaults to T=2 so CI keeps the threaded path exercised
  // without inflating wall-clock (an explicit --threads=1 stays pure
  // single-thread).
  std::vector<uint32_t> thread_points = {1};
  if (smoke && !threads_given) threads = 2;
  if (threads > 1) thread_points.push_back(threads);

  TableWriter gclr_table(
      "== Fig. 3 companion: variant 4 (GCLR all pairs, vector engine) at "
      "large N ==");
  gclr_table.SetHeader({"N", "threads", "steps", "gossip msgs", "peak nnz",
                        "nnz/N^2", "peak RSS MB", "wall ms"});
  for (uint32_t n : gclr_sizes) {
    Graph g = MustMakePaGraph(n, 2, 42);
    TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
    for (uint32_t num_threads : thread_points) {
      AggregationOptions o;
      o.gossip.xi = 1e-3;
      o.gossip.seed = 3;
      o.gossip.num_threads = num_threads;
      bench_util::WallTimer timer;
      auto r = AggregateGclrVector(g, t, o);
      if (!r.ok()) {
        std::cerr << r.status().ToString() << "\n";
        return 1;
      }
      const double ms = timer.ElapsedMs();
      // Process-wide peak up to this point.
      const double rss_mb = PeakRssMb();
      const double nn = static_cast<double>(n) * n;
      gclr_table.AddRow(
          {std::to_string(n), std::to_string(num_threads),
           std::to_string(r->stats.steps),
           std::to_string(r->stats.gossip_messages),
           std::to_string(r->stats.peak_state_nonzeros),
           FormatDouble(
               static_cast<double>(r->stats.peak_state_nonzeros) / nn, 3),
           FormatDouble(rss_mb, 1), FormatDouble(ms, 1)});
      json.AddPoint(
          {{"gclr_n", static_cast<double>(n)},
           {"gclr_threads", static_cast<double>(num_threads)},
           {"gclr_steps", static_cast<double>(r->stats.steps)},
           {"gclr_gossip_messages",
            static_cast<double>(r->stats.gossip_messages)},
           {"gclr_peak_nnz",
            static_cast<double>(r->stats.peak_state_nonzeros)},
           {"gclr_ms", ms},
           // Advisory: makes the large-N memory numbers part of the
           // recorded JSON.
           {"gclr_peak_rss_mb", rss_mb}});
    }
  }
  bench_util::Emit(gclr_table, "fig3_gclr_large_n.csv");
  json.Write();
  std::cout << "shape check: the rows fill in as mass mixes, so peak "
               "nnz/N^2 ends above 1 (every node's row holds all N columns, "
               "and a step keeps previous rows until their last reader has "
               "merged); peak RSS MB is the measure of bytes. Step and "
               "message counts are identical across the threads column "
               "(deterministic parallel step); only wall ms moves.\n";
  return 0;
}
