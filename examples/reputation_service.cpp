// Reputation serving demo — the paper's system run the way observers
// would actually consume it (§4.1.2: consult GCLR scores when choosing
// transaction partners, aggregation in periodic rounds, Delta-gated
// re-pushes between them).
//
// A ReputationService owns the trust state and runs aggregation rounds
// on a background thread; each finished round is published as an
// immutable epoch-numbered snapshot (RCU-style pointer swap). While
// rounds run, reader threads issue >= 1M mixed point / batch / top-k
// queries without ever taking a lock, a writer streams trust updates
// through the bounded MPSC ingest queue, and — because the demo runs in
// paced mode — every reader observes every epoch exactly once, in
// order. At the end the served scores are compared against a batch
// ReputationSystem run with the same seed and update schedule: they
// must be bit-identical.
//
// Run: ./example_reputation_service [num_nodes] [readers] [rounds]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table_writer.h"
#include "graph/pa_generator.h"
#include "reputation/reputation_system.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "trust/trust_estimator.h"

namespace {

// Deterministic per-epoch trust updates with distinct (observer, target)
// keys, so the batch comparator can replay the exact same schedule.
std::vector<dgt::TrustUpdate> UpdatesForEpoch(uint32_t n, uint64_t epoch) {
  return dgt::MakeDistinctTrustUpdates(n, 3000 + epoch, 64);
}

}  // namespace

int main(int argc, char** argv) {
  const int n_arg = argc > 1 ? std::atoi(argv[1]) : 256;
  const int readers_arg = argc > 2 ? std::atoi(argv[2]) : 4;
  const int rounds_arg = argc > 3 ? std::atoi(argv[3]) : 12;
  // rounds < 1 would select the service's free-running mode and this
  // fixed-budget demo would never terminate.
  if (n_arg < 8 || readers_arg < 1 || rounds_arg < 1) {
    std::fprintf(stderr,
                 "usage: %s [num_nodes >= 8] [readers >= 1] [rounds >= 1]\n",
                 argv[0]);
    return 1;
  }
  const uint32_t n = static_cast<uint32_t>(n_arg);
  const uint32_t num_readers = static_cast<uint32_t>(readers_arg);
  const uint32_t rounds = static_cast<uint32_t>(rounds_arg);
  // Sized so the default configuration issues > 1M queries total.
  const uint32_t iters_per_epoch = 880;

  // Overlay + initial direct trust, as in the quickstart.
  dgt::PaOptions pa;
  pa.num_nodes = n;
  pa.edges_per_node = 2;
  pa.seed = 42;
  auto graph = dgt::GeneratePreferentialAttachment(pa);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  dgt::TrustMatrix trust(n);
  dgt::Rng trust_rng(7);
  dgt::PopulateTrustFromQualities(*graph, 0.05, trust_rng, &trust);

  dgt::ReputationServiceOptions opts;
  opts.system.aggregation.gossip.xi = 1e-3;
  opts.system.base_seed = 19;
  opts.system.aggregation.gossip.num_threads = 2;  // clamped if needed
  opts.num_rounds = rounds;
  opts.paced = true;
  opts.read_shards = num_readers;
  opts.update_queue_capacity = 256;

  std::printf("serving %u nodes: %u background rounds, %u readers, "
              "paced epochs\n",
              n, rounds, num_readers);

  dgt::ReputationService service(&(*graph), trust, opts);
  std::vector<uint32_t> reader_ids(num_readers);
  for (auto& id : reader_ids) id = service.RegisterReader();
  const uint32_t writer_id = service.RegisterReader();
  if (dgt::Status s = service.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  std::atomic<uint64_t> total_queries{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::vector<std::vector<uint64_t>> epochs_seen(num_readers);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      dgt::Rng rng(100 + r);
      uint64_t queries = 0;
      uint64_t last = 0;
      for (;;) {
        const uint64_t epoch = service.AwaitEpochAfter(last);
        if (epoch == 0) break;
        if (epoch != last + 1) protocol_errors.fetch_add(1);
        epochs_seen[r].push_back(epoch);
        for (uint32_t iter = 0; iter < iters_per_epoch; ++iter) {
          for (int p = 0; p < 8; ++p) {
            auto res = service.QueryPoint(
                static_cast<dgt::NodeId>(rng.NextBelow(n)),
                static_cast<dgt::NodeId>(rng.NextBelow(n)));
            ++queries;
            if (!res.ok() || res->epoch != epoch) protocol_errors.fetch_add(1);
          }
          std::vector<dgt::NodeId> targets(16);
          for (auto& t : targets) {
            t = static_cast<dgt::NodeId>(rng.NextBelow(n));
          }
          auto batch = service.QueryBatch(
              static_cast<dgt::NodeId>(rng.NextBelow(n)), targets);
          queries += targets.size();
          if (!batch.ok() || batch->epoch != epoch) {
            protocol_errors.fetch_add(1);
          }
          auto topk = service.QueryTopK(
              static_cast<dgt::NodeId>(rng.NextBelow(n)), 5);
          ++queries;
          if (!topk.ok() || topk->epoch != epoch) protocol_errors.fetch_add(1);
        }
        service.AckEpoch(reader_ids[r], epoch);
        last = epoch;
      }
      total_queries.fetch_add(queries);
    });
  }
  std::thread writer([&] {
    uint64_t last = 0;
    for (;;) {
      const uint64_t epoch = service.AwaitEpochAfter(last);
      if (epoch == 0) break;
      if (epoch < rounds) {
        for (const dgt::TrustUpdate& u : UpdatesForEpoch(n, epoch)) {
          if (!service.SubmitTrustUpdate(u.observer, u.target, u.value)
                   .ok()) {
            protocol_errors.fetch_add(1);
          }
        }
      }
      service.AckEpoch(writer_id, epoch);
      last = epoch;
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  service.AwaitCompletion();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!service.driver_status().ok()) {
    std::fprintf(stderr, "driver: %s\n",
                 service.driver_status().ToString().c_str());
    return 1;
  }

  // Every reader must have walked epochs 1..rounds exactly.
  bool epochs_ok = true;
  for (uint32_t r = 0; r < num_readers; ++r) {
    if (epochs_seen[r].size() != rounds) epochs_ok = false;
    for (size_t e = 0; e < epochs_seen[r].size(); ++e) {
      if (epochs_seen[r][e] != e + 1) epochs_ok = false;
    }
  }

  // Batch comparator: same seeds, same update schedule, no serving.
  dgt::TrustMatrix batch_trust(n);
  dgt::Rng batch_rng(7);
  dgt::PopulateTrustFromQualities(*graph, 0.05, batch_rng, &batch_trust);
  dgt::ReputationSystem batch(&(*graph), &batch_trust, opts.system);
  for (uint64_t e = 1; e <= rounds; ++e) {
    if (e > 1) {
      for (const dgt::TrustUpdate& u : UpdatesForEpoch(n, e - 1)) {
        (void)batch_trust.Set(u.observer, u.target, u.value);
      }
    }
    if (dgt::Status s = batch.RunRound(); !s.ok()) {
      std::fprintf(stderr, "batch: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const auto snapshot = service.Snapshot();
  const bool bit_identical = snapshot->scores == batch.reputations();

  std::printf("served %llu mixed queries in %.2f s (%.0f queries/s) "
              "across %llu epochs\n",
              static_cast<unsigned long long>(total_queries.load()), secs,
              static_cast<double>(total_queries.load()) / secs,
              static_cast<unsigned long long>(service.epoch()));
  std::printf("trust updates folded at round boundaries: %llu "
              "(rejected: %llu)\n",
              static_cast<unsigned long long>(service.updates_folded()),
              static_cast<unsigned long long>(service.updates_rejected()));
  std::printf("every epoch observed exactly once per reader, in order: "
              "%s\n",
              epochs_ok && protocol_errors.load() == 0 ? "yes" : "NO");
  std::printf("final served scores bit-identical to the batch run: %s\n",
              bit_identical ? "yes" : "NO");

  // What an application would do with it: observer 0 picks partners.
  auto topk = service.QueryTopK(0, 5);
  if (topk.ok()) {
    dgt::TableWriter table("\nobserver 0's top-5 transaction partners "
                           "(epoch " +
                           std::to_string(topk->epoch) + "):");
    table.SetHeader({"rank", "peer", "gclr score"});
    for (size_t r = 0; r < topk->ids.size(); ++r) {
      table.AddRow({std::to_string(r + 1), std::to_string(topk->ids[r]),
                    dgt::FormatDouble(topk->scores[r], 4)});
    }
    table.Print(std::cout);
  }

  return epochs_ok && protocol_errors.load() == 0 && bit_identical ? 0 : 1;
}
