// The serving layer's load-bearing stress test (and the PR's acceptance
// demo in test form): a ReputationService runs >= 10 aggregation rounds
// in the background while concurrent reader threads issue >= 1M mixed
// point/batch/top-k queries against it. Every reader asserts
//
//   1. it observes every epoch exactly once, in monotonic order (the
//      paced EpochGate protocol),
//   2. every queried score equals the value a batch ReputationSystem run
//      with the same seed and the same update schedule produced for that
//      snapshot's epoch — i.e. a snapshot is always the scores of
//      exactly one round, never a torn mix (scores are bit-identical, so
//      the comparison is ==, not near),
//
// while a writer thread streams deterministic trust updates through the
// bounded MPSC queue, exercising the full write path concurrently. The
// CI tsan leg runs this file, so the whole construction is also proved
// race-free under ThreadSanitizer.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "reputation/reputation_system.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;

constexpr uint32_t kNodes = 96;
constexpr uint32_t kRounds = 10;
constexpr uint32_t kReaders = 4;
// Queries per reader per epoch: iterations x (8 point + 16 batch + 1
// top-k) per iteration. 4 readers x 10 epochs x 1080 x 25 = 1.08M.
constexpr uint32_t kItersPerEpoch = 1080;
constexpr uint32_t kUpdatesPerEpoch = 150;

// The deterministic update schedule folded before round `epoch + 1`;
// distinct keys keep the fold independent of queue arrival order.
std::vector<TrustUpdate> UpdatesForEpoch(uint64_t epoch) {
  return MakeDistinctTrustUpdates(kNodes, 1000 + epoch, kUpdatesPerEpoch);
}

TEST(SnapshotConsistencyStress, MillionMixedQueriesDuringTenRounds) {
  Graph g = MakePaGraph(kNodes, 2, 404);
  TrustMatrix trust(kNodes);
  FillTrust(g, &trust, 41);

  ReputationServiceOptions opts;
  opts.system.aggregation.gossip.xi = 1e-3;
  opts.system.base_seed = 23;
  opts.num_rounds = kRounds;
  opts.paced = true;
  opts.read_shards = kReaders;
  opts.update_queue_capacity = 2 * kUpdatesPerEpoch;

  // Ground truth: a batch run folding the same schedule by hand.
  std::vector<std::vector<std::vector<double>>> expected;  // [epoch-1]
  {
    TrustMatrix batch_trust = trust;
    ReputationSystem batch(&g, &batch_trust, opts.system);
    for (uint64_t e = 1; e <= kRounds; ++e) {
      if (e > 1) {
        for (const TrustUpdate& u : UpdatesForEpoch(e - 1)) {
          ASSERT_TRUE(batch_trust.Set(u.observer, u.target, u.value).ok());
        }
      }
      ASSERT_TRUE(batch.RunRound().ok());
      expected.push_back(batch.reputations());
    }
  }

  ReputationService service(&g, trust, opts);
  std::vector<uint32_t> reader_ids;
  for (uint32_t r = 0; r < kReaders; ++r) {
    reader_ids.push_back(service.RegisterReader());
  }
  // The update writer participates in pacing too, so each epoch's update
  // batch is fully enqueued before the next round folds it.
  const uint32_t writer_id = service.RegisterReader();

  ASSERT_TRUE(service.Start().ok());

  std::atomic<uint64_t> total_queries{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> protocol_errors{0};

  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7000 + r);
      uint64_t queries = 0;
      uint64_t last_epoch = 0;
      for (;;) {
        const uint64_t epoch = service.AwaitEpochAfter(last_epoch);
        if (epoch == 0) break;
        // Exactly-once, in order: the gate must hand out last + 1.
        if (epoch != last_epoch + 1) protocol_errors.fetch_add(1);
        const auto& truth = expected[epoch - 1];
        for (uint32_t iter = 0; iter < kItersPerEpoch; ++iter) {
          for (int p = 0; p < 8; ++p) {
            const NodeId i = static_cast<NodeId>(rng.NextBelow(kNodes));
            const NodeId j = static_cast<NodeId>(rng.NextBelow(kNodes));
            auto res = service.QueryPoint(i, j);
            ++queries;
            // While this reader has not acked `epoch`, the paced driver
            // cannot publish a newer round, so every query answers from
            // exactly this epoch's snapshot.
            if (!res.ok() || res->epoch != epoch) {
              protocol_errors.fetch_add(1);
            } else if (res->score != truth[i][j]) {
              mismatches.fetch_add(1);
            }
          }
          {
            const NodeId i = static_cast<NodeId>(rng.NextBelow(kNodes));
            std::vector<NodeId> targets(16);
            for (auto& t : targets) {
              t = static_cast<NodeId>(rng.NextBelow(kNodes));
            }
            auto res = service.QueryBatch(i, targets);
            queries += targets.size();
            if (!res.ok() || res->epoch != epoch) {
              protocol_errors.fetch_add(1);
            } else {
              // All 16 answers must come from one round — the torn-mix
              // detector.
              const auto& row = truth[i];
              for (size_t t = 0; t < targets.size(); ++t) {
                if (res->scores[t] != row[targets[t]]) {
                  mismatches.fetch_add(1);
                }
              }
            }
          }
          {
            const NodeId i = static_cast<NodeId>(rng.NextBelow(kNodes));
            auto res = service.QueryTopK(i, 8);
            ++queries;
            if (!res.ok() || res->epoch != epoch) {
              protocol_errors.fetch_add(1);
            } else {
              const auto& row = truth[i];
              for (size_t rank = 0; rank < res->ids.size(); ++rank) {
                if (res->scores[rank] != row[res->ids[rank]]) {
                  mismatches.fetch_add(1);
                }
                if (rank > 0 &&
                    res->scores[rank - 1] < res->scores[rank]) {
                  mismatches.fetch_add(1);
                }
              }
            }
          }
        }
        // The snapshot we pin now must be internally consistent with a
        // single epoch as well.
        auto snap = service.Snapshot();
        if (snap == nullptr || snap->epoch != epoch ||
            snap->scores != truth) {
          protocol_errors.fetch_add(1);
        }
        service.AckEpoch(reader_ids[r], epoch);
        last_epoch = epoch;
      }
      // Every epoch was delivered before the service finished.
      if (last_epoch != kRounds) protocol_errors.fetch_add(1);
      total_queries.fetch_add(queries);
    });
  }

  std::thread writer([&] {
    uint64_t last_epoch = 0;
    for (;;) {
      const uint64_t epoch = service.AwaitEpochAfter(last_epoch);
      if (epoch == 0) break;
      if (epoch < kRounds) {  // updates after the last round never fold
        for (const TrustUpdate& u : UpdatesForEpoch(epoch)) {
          Status s = service.SubmitTrustUpdate(u.observer, u.target, u.value);
          if (!s.ok()) protocol_errors.fetch_add(1);
        }
      }
      service.AckEpoch(writer_id, epoch);
      last_epoch = epoch;
    }
  });

  for (auto& t : readers) t.join();
  writer.join();
  service.AwaitCompletion();
  ASSERT_TRUE(service.driver_status().ok())
      << service.driver_status().ToString();

  EXPECT_EQ(protocol_errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(total_queries.load(), 1000000u) << "not a 1M-query stress";
  EXPECT_EQ(service.epoch(), kRounds);
  EXPECT_EQ(service.updates_folded(),
            static_cast<uint64_t>(kUpdatesPerEpoch) * (kRounds - 1));
  EXPECT_EQ(service.updates_rejected(), 0u);

  // Final served scores are bit-identical to the batch run.
  auto final_snap = service.Snapshot();
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->epoch, kRounds);
  EXPECT_EQ(final_snap->scores, expected.back());
}

}  // namespace
}  // namespace dgt
