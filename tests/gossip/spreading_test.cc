#include "gossip/spreading.h"

#include <cmath>

#include "graph/generators.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

TEST(SpreadingTest, RejectsBadSource) {
  Graph g = MakePaGraph(20);
  Rng rng(1);
  EXPECT_FALSE(SpreadRumor(g, 20, SpreadProtocol::kPush, 100, rng).ok());
}

TEST(SpreadingTest, SingleInformedNodeCompletesOnConnectedGraph) {
  Graph g = MakePaGraph(200);
  for (auto proto : {SpreadProtocol::kPush, SpreadProtocol::kDifferentialPush,
                     SpreadProtocol::kPull, SpreadProtocol::kPushPull}) {
    Rng rng(2);
    auto r = SpreadRumor(g, 0, proto, 100000, rng);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->completed);
    EXPECT_EQ(r->informed, 200u);
    EXPECT_GT(r->rounds, 0u);
  }
}

TEST(SpreadingTest, MaxRoundsCap) {
  auto g = GenerateRing(1000).value();
  Rng rng(3);
  auto r = SpreadRumor(g, 0, SpreadProtocol::kPush, 3, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->completed);
  EXPECT_LE(r->informed, 7u);  // ring: at most 2 new nodes per round
}

TEST(SpreadingTest, DifferentialPushBeatsPlainPushOnStar) {
  // Star: plain push from the hub informs one leaf per round (coupon
  // collector ~ n log n rounds); differential push informs all leaves in
  // one round because the hub's k equals its degree.
  auto g = GenerateStar(101).value();
  Rng r1(4), r2(4);
  auto plain = SpreadRumor(g, 0, SpreadProtocol::kPush, 100000, r1);
  auto diff =
      SpreadRumor(g, 0, SpreadProtocol::kDifferentialPush, 100000, r2);
  ASSERT_TRUE(plain.ok() && diff.ok());
  EXPECT_TRUE(plain->completed && diff->completed);
  EXPECT_EQ(diff->rounds, 1u);
  EXPECT_GT(plain->rounds, 20u);
}

TEST(SpreadingTest, PullFromLeafIsSlowOnStar) {
  // With pull, all leaves ask the hub every round, so once the hub knows,
  // everyone learns next round; starting at a leaf, the hub pulls from a
  // random leaf and takes ~n rounds to hit the informed one.
  auto g = GenerateStar(51).value();
  Rng r1(5), r2(5);
  auto from_leaf = SpreadRumor(g, 1, SpreadProtocol::kPull, 100000, r1);
  ASSERT_TRUE(from_leaf.ok());
  EXPECT_TRUE(from_leaf->completed);
  EXPECT_GT(from_leaf->rounds, 2u);
  auto from_hub = SpreadRumor(g, 0, SpreadProtocol::kPull, 100000, r2);
  ASSERT_TRUE(from_hub.ok());
  EXPECT_EQ(from_hub->rounds, 1u);
}

TEST(SpreadingTest, PushPullNoSlowerThanEither) {
  Graph g = MakePaGraph(500, 2, 77);
  double push_avg = 0, pp_avg = 0;
  const int kTrials = 5;
  for (int t = 0; t < kTrials; ++t) {
    Rng r1(10 + t), r2(10 + t);
    auto push = SpreadRumor(g, 0, SpreadProtocol::kPush, 100000, r1);
    auto pp = SpreadRumor(g, 0, SpreadProtocol::kPushPull, 100000, r2);
    ASSERT_TRUE(push.ok() && pp.ok());
    push_avg += push->rounds;
    pp_avg += pp->rounds;
  }
  EXPECT_LE(pp_avg, push_avg);
}

TEST(SpreadingTest, RoundsScalePolylogOnPaGraphs) {
  // Theorem 5.1: differential push completes within O((log2 N)^2). Allow a
  // generous constant; the point is it does not scale linearly with N.
  for (uint32_t n : {100u, 1000u, 5000u}) {
    Graph g = MakePaGraph(n, 2, 31);
    Rng rng(6);
    auto r = SpreadRumor(g, 0, SpreadProtocol::kDifferentialPush, 100000, rng);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->completed);
    double log2n = std::log2(static_cast<double>(n));
    EXPECT_LE(r->rounds, 3.0 * log2n * log2n) << "n=" << n;
  }
}

TEST(SpreadingTest, MessagesCounted) {
  Graph g = MakePaGraph(100);
  Rng rng(7);
  auto r = SpreadRumor(g, 0, SpreadProtocol::kPush, 100000, rng);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->messages, 0u);
  // Push sends one message per informed node per round; the total is
  // bounded by n * rounds.
  EXPECT_LE(r->messages, 100ull * r->rounds);
}

TEST(SpreadingTest, StopsOnceTheSourceComponentIsInformed) {
  // Nothing outside the source's component can ever be informed, so the
  // run ends there, not completed, instead of spending every remaining
  // round.
  Graph edgeless(5);
  Graph split(3);  // 0 - 1, node 2 unreachable
  ASSERT_TRUE(split.AddEdge(0, 1).ok());
  for (auto proto : {SpreadProtocol::kPush, SpreadProtocol::kDifferentialPush,
                     SpreadProtocol::kPull, SpreadProtocol::kPushPull}) {
    Rng rng(8);
    auto r = SpreadRumor(edgeless, 0, proto, 50, rng);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rounds, 0u);
    EXPECT_EQ(r->messages, 0u);
    EXPECT_FALSE(r->completed);
    EXPECT_EQ(r->informed, 1u);

    auto s = SpreadRumor(split, 0, proto, 50, rng);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->rounds, 1u);
    EXPECT_FALSE(s->completed);
    EXPECT_EQ(s->informed, 2u);
  }
}

}  // namespace
}  // namespace dgt
