// Serving-layer throughput: a ReputationService runs paced aggregation
// rounds in the background while 1..R reader threads hammer the snapshot
// store with a fixed mixed workload (point lookups, 16-target batch
// lookups, top-k rankings) and stream trust updates through the bounded
// MPSC queue. Reported: queries/second by reader count, plus the
// deterministic query/round/update/step counts that CI gates against
// ci/bench_baselines/BENCH_serve_throughput.json (wall-clock and rates
// are advisory; see scripts/check_bench_baseline.py).
//
// Determinism: pacing makes each epoch's update batch fold exactly
// before the next round, updates use distinct (observer, target) keys so
// fold order cannot matter, and the per-reader workload is a fixed
// query count — so rounds, gossip steps/messages, query and update
// totals are all pure functions of the configuration, on any machine.
//
// The gossip worker request is clamped to hardware concurrency (logged)
// via the service; reader counts are workload parameters and are kept as
// requested — on fewer cores they time-share, which only moves the
// advisory rate numbers. Flags: --smoke (CI config), --threads=R (max
// reader count, default 4), --out_dir=PATH.

#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "serve/service.h"
#include "serve/workload.h"

namespace {

// Distinct-key update schedule for one epoch (see determinism note).
std::vector<dgt::TrustUpdate> UpdatesForEpoch(uint32_t n, uint64_t epoch,
                                              uint32_t count) {
  return dgt::MakeDistinctTrustUpdates(n, 5000 + epoch, count);
}

struct WorkloadTotals {
  uint64_t point = 0;
  uint64_t batch = 0;
  uint64_t topk = 0;
  uint64_t errors = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dgt;

  bench_util::InitOutputDir(argc, argv);
  bool smoke = false;
  uint32_t max_readers = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const int v = std::atoi(argv[i] + 10);
      if (v <= 0 || v > 256) {
        std::cerr << "--threads must lie in [1, 256]\n";
        return 1;
      }
      max_readers = static_cast<uint32_t>(v);
    }
  }

  const uint32_t n = smoke ? 192 : 512;
  const uint32_t rounds = smoke ? 3 : 6;
  const uint32_t iters_per_epoch = smoke ? 600 : 5000;
  const uint32_t updates_per_epoch = smoke ? 40 : 120;
  std::vector<uint32_t> reader_counts;
  for (uint32_t r = 1; r <= max_readers; r *= 2) reader_counts.push_back(r);
  if (smoke) reader_counts = {1, 2};

  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw > 0 && reader_counts.back() > hw) {
    std::cout << "note: up to " << reader_counts.back()
              << " reader threads on " << hw
              << " hardware thread" << (hw == 1 ? "" : "s")
              << "; readers time-share (rates are advisory anyway)\n";
  }

  Graph g = bench_util::MustMakePaGraph(n, 2, 42);
  TrustMatrix trust = bench_util::MakeSparseTrust(n, 16, 11);

  bench_util::BenchJsonWriter json("serve_throughput");
  TableWriter table(
      "== Serving layer: mixed query throughput while rounds aggregate "
      "in the background ==");
  table.SetHeader({"N", "readers", "rounds", "queries", "updates",
                   "gossip steps", "wall ms", "queries/s"});

  for (uint32_t num_readers : reader_counts) {
    ReputationServiceOptions opts;
    opts.system.aggregation.gossip.xi = 1e-3;
    opts.system.base_seed = 7;
    // The service clamps this to hardware concurrency with a note.
    opts.system.aggregation.gossip.num_threads = smoke ? 2 : 4;
    opts.num_rounds = rounds;
    opts.paced = true;
    opts.read_shards = num_readers;
    opts.update_queue_capacity = 2 * updates_per_epoch;

    ReputationService service(&g, trust, opts);
    std::vector<uint32_t> reader_ids(num_readers);
    for (auto& id : reader_ids) id = service.RegisterReader();
    const uint32_t writer_id = service.RegisterReader();

    if (!service.Start().ok()) {
      std::cerr << "service failed to start\n";
      return 1;
    }

    std::vector<WorkloadTotals> totals(num_readers);
    std::vector<std::thread> readers;
    bench_util::WallTimer timer;
    for (uint32_t r = 0; r < num_readers; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(9000 + r);
        WorkloadTotals& t = totals[r];
        uint64_t last = 0;
        for (;;) {
          const uint64_t epoch = service.AwaitEpochAfter(last);
          if (epoch == 0) break;
          for (uint32_t iter = 0; iter < iters_per_epoch; ++iter) {
            for (int p = 0; p < 8; ++p) {
              const NodeId i = static_cast<NodeId>(rng.NextBelow(n));
              const NodeId j = static_cast<NodeId>(rng.NextBelow(n));
              auto res = service.QueryPoint(i, j);
              ++t.point;
              if (!res.ok()) ++t.errors;
            }
            std::vector<NodeId> targets(16);
            for (auto& x : targets) {
              x = static_cast<NodeId>(rng.NextBelow(n));
            }
            auto batch = service.QueryBatch(
                static_cast<NodeId>(rng.NextBelow(n)), targets);
            t.batch += targets.size();
            if (!batch.ok()) ++t.errors;
            auto topk =
                service.QueryTopK(static_cast<NodeId>(rng.NextBelow(n)), 8);
            ++t.topk;
            if (!topk.ok()) ++t.errors;
          }
          service.AckEpoch(reader_ids[r], epoch);
          last = epoch;
        }
      });
    }
    std::thread writer([&] {
      uint64_t last = 0;
      for (;;) {
        const uint64_t epoch = service.AwaitEpochAfter(last);
        if (epoch == 0) break;
        if (epoch < rounds) {
          for (const TrustUpdate& u :
               UpdatesForEpoch(n, epoch, updates_per_epoch)) {
            // Rejections are surfaced after the run via
            // updates_rejected() and fail the bench.
            (void)service.SubmitTrustUpdate(u.observer, u.target, u.value);
          }
        }
        service.AckEpoch(writer_id, epoch);
        last = epoch;
      }
    });
    for (auto& t : readers) t.join();
    writer.join();
    service.AwaitCompletion();
    const double ms = timer.ElapsedMs();
    if (!service.driver_status().ok()) {
      std::cerr << service.driver_status().ToString() << "\n";
      return 1;
    }

    WorkloadTotals sum;
    for (const auto& t : totals) {
      sum.point += t.point;
      sum.batch += t.batch;
      sum.topk += t.topk;
      sum.errors += t.errors;
    }
    if (sum.errors != 0) {
      std::cerr << sum.errors << " queries failed\n";
      return 1;
    }
    if (service.updates_rejected() != 0) {
      std::cerr << service.updates_rejected()
                << " updates rejected (queue sizing bug)\n";
      return 1;
    }
    const uint64_t queries = sum.point + sum.batch + sum.topk;
    // Measured, not assumed: pacing guarantees every submitted update
    // folds before the final round, so this equals
    // updates_per_epoch * (rounds - 1) — and a broken ingest path breaks
    // the CI gate instead of only printing to stderr.
    const uint64_t updates = service.updates_folded();
    const double qps = ms > 0.0 ? 1000.0 * static_cast<double>(queries) / ms
                                : 0.0;
    // The final round's gossip stats (deterministic per config, like
    // every round's).
    const auto snap = service.Snapshot();
    const uint64_t steps_total = snap->round_stats.steps;

    table.AddRow({std::to_string(n), std::to_string(num_readers),
                  std::to_string(service.epoch()),
                  std::to_string(queries), std::to_string(updates),
                  std::to_string(steps_total), FormatDouble(ms, 1),
                  FormatDouble(qps, 0)});
    json.AddPoint(
        {{"n", static_cast<double>(n)},
         {"readers", static_cast<double>(num_readers)},
         {"serve_rounds", static_cast<double>(service.epoch())},
         {"point_queries", static_cast<double>(sum.point)},
         {"batch_queries", static_cast<double>(sum.batch)},
         {"topk_queries", static_cast<double>(sum.topk)},
         {"trust_updates", static_cast<double>(updates)},
         {"final_round_steps", static_cast<double>(steps_total)},
         {"final_round_gossip_messages",
          static_cast<double>(snap->round_stats.gossip_messages)},
         {"wall_ms", ms},
         {"queries_per_sec", qps}});
  }

  bench_util::Emit(table, "serve_throughput.csv");
  json.Write();
  std::cout << "shape check: queries are answered lock-free against the "
               "current epoch snapshot while rounds aggregate in the "
               "background; counts are deterministic per config, only the "
               "wall-clock and queries/s columns move between machines.\n";
  return 0;
}
