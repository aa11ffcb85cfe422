// Backpressure under erase-heavy scenario load. Two layers: the bounded
// MPSC queue itself must count every rejected TrustUpdate (erase updates
// included — churn bursts turn a boundary diff erase-heavy), and the
// scenario runner must SURFACE queue overflow as a FailedPrecondition
// from Run() with the rejection visible in service_updates_rejected() —
// never a silent drop that would quietly corrupt the served scores.

#include <limits>
#include <string>
#include <vector>

#include "common/mpsc_queue.h"
#include "gtest/gtest.h"
#include "scenario/scenario_runner.h"
#include "serve/service.h"
#include "test_util.h"

namespace dgt {
namespace {

TEST(MpscBackpressureTest, EraseHeavyOverflowIsCountedNotDropped) {
  BoundedWorkQueue<TrustUpdate> queue(8);
  // A churn-burst-shaped wave: a few fresh opinions, then a long run of
  // erases for the departed identity's rows.
  uint64_t pushed = 0;
  uint64_t rejected = 0;
  for (uint32_t i = 0; i < 24; ++i) {
    TrustUpdate update;
    update.observer = i;
    update.target = 3;
    update.erase = i >= 4;  // erase-heavy tail
    if (queue.TryPush(update)) {
      ++pushed;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(pushed, 8u);
  EXPECT_EQ(rejected, 16u);
  EXPECT_EQ(queue.rejected(), rejected);

  // Draining preserves order and the erase flags; the rejection counter
  // keeps the history.
  std::vector<TrustUpdate> drained;
  EXPECT_EQ(
      queue.TryPopUpTo(std::numeric_limits<size_t>::max(), &drained), 8u);
  ASSERT_EQ(drained.size(), 8u);
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].observer, i);
    EXPECT_EQ(drained[i].erase, i >= 4);
  }
  EXPECT_EQ(queue.rejected(), 16u);

  // Space freed by the drain admits new pushes without resetting the
  // rejected() history.
  EXPECT_TRUE(queue.TryPush(TrustUpdate{}));
  EXPECT_EQ(queue.rejected(), 16u);
}

// A churn-heavy spec with a deliberately tiny ingest queue: the very
// first gossip boundary submits a full-matrix diff that cannot fit, so
// Run() must fail with the queue-overflow FailedPrecondition and the
// rejection must be observable — the runner's contract is that rejected
// updates are surfaced, never silently dropped.
TEST(MpscBackpressureTest, RunnerSurfacesQueueOverflow) {
  const Graph graph = testing_util::MakePaGraph(24);

  ScenarioSpec spec;
  spec.profiles.assign(24, PeerProfile{});
  spec.num_rounds = 8;
  spec.gossip_every = 2;
  spec.update_queue_capacity = 4;  // a 24-node diff is far larger
  // Churn bursts make the boundary erase-heavy on top of the Sets.
  spec.phases = {{"churny", 1, 0, false, 0.0, 0.25}};

  Result<std::unique_ptr<ScenarioRunner>> runner =
      ScenarioRunner::Create(&graph, spec);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();

  const Status status = (*runner)->Run();
  ASSERT_FALSE(status.ok()) << "overflow must not be silent";
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("ingest queue overflowed"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("update_queue_capacity"),
            std::string::npos)
      << status.message();
  EXPECT_GT((*runner)->service_updates_rejected(), 0u);
}

// The same spec with the default (auto-sized) queue runs clean: the
// backpressure above was the capacity override, not the workload.
TEST(MpscBackpressureTest, AutoSizedQueueAbsorbsTheSameWorkload) {
  const Graph graph = testing_util::MakePaGraph(24);

  ScenarioSpec spec;
  spec.profiles.assign(24, PeerProfile{});
  spec.num_rounds = 8;
  spec.gossip_every = 2;
  spec.update_queue_capacity = 0;  // auto: n^2 with a 4096 floor
  spec.phases = {{"churny", 1, 0, false, 0.0, 0.25}};

  Result<std::unique_ptr<ScenarioRunner>> runner =
      ScenarioRunner::Create(&graph, spec);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_TRUE((*runner)->Run().ok());
  EXPECT_EQ((*runner)->service_updates_rejected(), 0u);
}

}  // namespace
}  // namespace dgt
