// ReputationService end-to-end behaviour: batch equivalence, update
// folding at round boundaries, query semantics, backpressure, clamping,
// a failing round, and clean shutdown. The torn-read/monotonicity stress lives in
// snapshot_consistency_test.cc.

#include "serve/service.h"

#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "reputation/reputation_system.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;

ReputationServiceOptions BaseOptions() {
  ReputationServiceOptions o;
  o.system.aggregation.gossip.xi = 1e-3;
  o.system.base_seed = 17;
  return o;
}

TEST(ReputationServiceTest, FinalScoresBitIdenticalToBatchRun) {
  const uint32_t n = 48;
  Graph g = MakePaGraph(n, 2, 91);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 5);

  ReputationServiceOptions opts = BaseOptions();
  opts.num_rounds = 5;

  // The batch comparator: the pre-serving way of getting reputations.
  TrustMatrix batch_trust = trust;
  ReputationSystem batch(&g, &batch_trust, opts.system);
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(batch.RunRound().ok());
  }

  ReputationService service(&g, trust, opts);
  ASSERT_TRUE(service.Start().ok());
  service.AwaitCompletion();
  ASSERT_TRUE(service.driver_status().ok())
      << service.driver_status().ToString();

  auto snap = service.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 5u);
  EXPECT_EQ(service.epoch(), 5u);
  EXPECT_TRUE(service.finished());
  // Same seed schedule, same trust state => bit-identical scores and
  // identical gossip statistics.
  EXPECT_EQ(snap->scores, batch.reputations());
  EXPECT_EQ(snap->round_stats.steps, batch.last_round_stats().steps);
  EXPECT_EQ(snap->round_stats.gossip_messages,
            batch.last_round_stats().gossip_messages);
}

TEST(ReputationServiceTest, UpdatesFoldExactlyAtRoundBoundaries) {
  const uint32_t n = 32;
  Graph g = MakePaGraph(n, 2, 92);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 6);

  ReputationServiceOptions opts = BaseOptions();
  opts.num_rounds = 3;
  opts.paced = true;

  // Batch comparator replaying the same update schedule by hand.
  TrustMatrix batch_trust = trust;
  ReputationSystem batch(&g, &batch_trust, opts.system);
  std::vector<std::vector<std::vector<double>>> expected;
  ASSERT_TRUE(batch.RunRound().ok());  // round 1: initial trust
  expected.push_back(batch.reputations());
  ASSERT_TRUE(batch_trust.Set(0, 5, 0.123).ok());  // folded before round 2
  ASSERT_TRUE(batch_trust.Set(7, 1, 0.877).ok());
  ASSERT_TRUE(batch.RunRound().ok());
  expected.push_back(batch.reputations());
  ASSERT_TRUE(batch_trust.Set(0, 5, 0.999).ok());  // folded before round 3
  ASSERT_TRUE(batch.RunRound().ok());
  expected.push_back(batch.reputations());

  ReputationService service(&g, trust, opts);
  const uint32_t reader = service.RegisterReader();
  ASSERT_TRUE(service.Start().ok());

  // Epoch 1: initial trust only.
  ASSERT_EQ(service.AwaitEpochAfter(0), 1u);
  EXPECT_EQ(service.Snapshot()->scores, expected[0]);
  ASSERT_TRUE(service.SubmitTrustUpdate(0, 5, 0.123).ok());
  ASSERT_TRUE(service.SubmitTrustUpdate(7, 1, 0.877).ok());
  service.AckEpoch(reader, 1);

  // Epoch 2 must include exactly those two updates.
  ASSERT_EQ(service.AwaitEpochAfter(1), 2u);
  auto snap2 = service.Snapshot();
  EXPECT_EQ(snap2->scores, expected[1]);
  EXPECT_EQ(snap2->trust_updates_folded, 2u);
  ASSERT_TRUE(service.SubmitTrustUpdate(0, 5, 0.999).ok());
  service.AckEpoch(reader, 2);

  ASSERT_EQ(service.AwaitEpochAfter(2), 3u);
  auto snap3 = service.Snapshot();
  EXPECT_EQ(snap3->scores, expected[2]);
  EXPECT_EQ(snap3->trust_updates_folded, 3u);
  service.AckEpoch(reader, 3);

  // Natural completion: no further epoch.
  EXPECT_EQ(service.AwaitEpochAfter(3), 0u);
  service.AwaitCompletion();
  EXPECT_EQ(service.updates_folded(), 3u);
}

TEST(ReputationServiceTest, QueriesBeforeFirstRoundFailCleanly) {
  const uint32_t n = 16;
  Graph g = MakePaGraph(n, 2, 93);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 7);

  ReputationService service(&g, trust, BaseOptions());
  EXPECT_EQ(service.Snapshot(), nullptr);
  EXPECT_EQ(service.QueryPoint(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.QueryBatch(0, {1, 2}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.QueryTopK(0, 3).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReputationServiceTest, QueriesDelegateToSnapshotAfterARound) {
  const uint32_t n = 24;
  Graph g = MakePaGraph(n, 2, 94);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 8);

  ReputationServiceOptions opts = BaseOptions();
  opts.num_rounds = 1;
  ReputationService service(&g, trust, opts);
  ASSERT_TRUE(service.Start().ok());
  service.AwaitCompletion();

  auto snap = service.Snapshot();
  ASSERT_NE(snap, nullptr);
  auto point = service.QueryPoint(3, 4);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->epoch, 1u);
  EXPECT_EQ(point->score, snap->scores[3][4]);

  auto batch = service.QueryBatch(3, {4, 0});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->scores,
            (std::vector<double>{snap->scores[3][4], snap->scores[3][0]}));

  auto topk = service.QueryTopK(3, 5);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->ids.size(), 5u);
  for (size_t r = 1; r < topk->ids.size(); ++r) {
    EXPECT_GE(topk->scores[r - 1], topk->scores[r]);
    EXPECT_NE(topk->ids[r], 3u);  // self excluded
  }
}

TEST(ReputationServiceTest, UpdateValidationAndQueueBackpressure) {
  const uint32_t n = 8;
  Graph g = MakePaGraph(n, 2, 95);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 9);

  ReputationServiceOptions opts = BaseOptions();
  opts.update_queue_capacity = 2;
  ReputationService service(&g, trust, opts);  // never started: no drain

  EXPECT_EQ(service.SubmitTrustUpdate(0, 8, 0.5).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(service.SubmitTrustUpdate(3, 3, 0.5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SubmitTrustUpdate(0, 1, 1.5).code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(service.SubmitTrustUpdate(0, 1, 0.5).ok());
  EXPECT_TRUE(service.SubmitTrustUpdate(0, 2, 0.5).ok());
  Status full = service.SubmitTrustUpdate(0, 3, 0.5);
  EXPECT_EQ(full.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(full.message().find("queue full"), std::string::npos);
  EXPECT_EQ(service.updates_rejected(), 1u);
}

TEST(ReputationServiceTest, WorkerCountIsClampedToHardware) {
  const uint32_t n = 8;
  Graph g = MakePaGraph(n, 2, 96);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 10);

  ReputationServiceOptions opts = BaseOptions();
  opts.system.aggregation.gossip.num_threads = 1u << 20;
  ReputationService service(&g, trust, opts);
  const uint32_t hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(service.worker_threads(), hw);
    EXPECT_EQ(service.read_shards(), hw);
  } else {
    EXPECT_GE(service.worker_threads(), 1u);
  }
}

TEST(ReputationServiceTest, StopInterruptsAFreeRunningService) {
  const uint32_t n = 24;
  Graph g = MakePaGraph(n, 2, 97);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 11);

  ReputationServiceOptions opts = BaseOptions();
  opts.num_rounds = 0;  // free-run
  ReputationService service(&g, trust, opts);
  ASSERT_TRUE(service.Start().ok());

  // Wait (bounded) for at least two epochs, then stop mid-flight.
  for (int spin = 0; spin < 20000 && service.epoch() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.epoch(), 2u);
  service.Stop();
  EXPECT_TRUE(service.finished());
  EXPECT_TRUE(service.driver_status().ok());
  const uint64_t settled = service.epoch();
  EXPECT_EQ(service.Snapshot()->epoch, settled);
  // Stop is idempotent and the destructor will stop again harmlessly.
  service.Stop();
}

TEST(ReputationServiceTest, FailedRoundReleasesReadersAndReportsTheError) {
  const uint32_t n = 16;
  Graph g = MakePaGraph(n, 2, 99);
  TrustMatrix trust(n);
  FillTrust(g, &trust, 12);

  obs::MetricsRegistry registry;
  ReputationServiceOptions opts = BaseOptions();
  opts.num_rounds = 3;
  opts.paced = true;
  opts.metrics = &registry;
  // RunPushSum rejects a NaN xi, so round 1 fails before any publish.
  opts.system.aggregation.gossip.xi =
      std::numeric_limits<double>::quiet_NaN();
  ReputationService service(&g, trust, opts);
  service.RegisterReader();
  ASSERT_TRUE(service.Start().ok());

  // The paced reader is released with no epoch instead of blocking.
  EXPECT_EQ(service.AwaitEpochAfter(0), 0u);
  service.AwaitCompletion();
  EXPECT_TRUE(service.finished());
  EXPECT_EQ(service.driver_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.Snapshot(), nullptr);
  EXPECT_EQ(service.QueryPoint(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.GetCounter("serve_epochs_published")->Value(), 0u);
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(ReputationServiceTest, StartRejectsMismatchedGraphAndTrust) {
  Graph g = MakePaGraph(16, 2, 98);
  TrustMatrix trust(8);
  ReputationService service(&g, trust, BaseOptions());
  EXPECT_EQ(service.Start().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dgt
