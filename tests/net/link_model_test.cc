#include "net/link_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(LinkModelTest, RejectsBadOptions) {
  LinkModelOptions o;
  o.access_latency_min = -1.0;
  EXPECT_FALSE(LinkModel::Create(5, o).ok());
  o = {};
  o.access_latency_max = o.access_latency_min - 0.01;
  EXPECT_FALSE(LinkModel::Create(5, o).ok());
  o = {};
  o.backbone_latency = -0.5;
  EXPECT_FALSE(LinkModel::Create(5, o).ok());
  o = {};
  o.jitter = -0.1;
  EXPECT_FALSE(LinkModel::Create(5, o).ok());
  // Regression: an infinite backbone, access maximum or jitter passed and
  // then crashed the event-driven engine; a NaN jitter ran as no jitter.
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {inf, -inf, std::nan("")}) {
    for (double LinkModelOptions::*field :
         {&LinkModelOptions::access_latency_min,
          &LinkModelOptions::access_latency_max,
          &LinkModelOptions::backbone_latency, &LinkModelOptions::jitter}) {
      o = {};
      o.*field = v;
      EXPECT_FALSE(LinkModel::Create(5, o).ok()) << "value " << v;
    }
  }
}

TEST(LinkModelTest, AccessLatencyWithinRange) {
  // Without backbone or jitter, a node's link to itself costs exactly
  // twice its access latency.
  LinkModelOptions o;
  o.access_latency_min = 0.01;
  o.access_latency_max = 0.02;
  o.backbone_latency = 0.0;
  o.jitter = 0.0;
  auto m = LinkModel::Create(100, o);
  ASSERT_TRUE(m.ok());
  Rng rng(1);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_GE(m->Latency(u, u, rng), 0.02);
    EXPECT_LT(m->Latency(u, u, rng), 0.04);
  }
}

TEST(LinkModelTest, LatencyDecomposition) {
  // Fixed access latencies and no jitter: every link costs
  // access(u) + backbone + access(v).
  LinkModelOptions o;
  o.access_latency_min = 0.01;
  o.access_latency_max = 0.01;
  o.jitter = 0.0;
  auto m = LinkModel::Create(10, o);
  ASSERT_TRUE(m.ok());
  Rng rng(1);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = 0; v < 10; ++v) {
      EXPECT_DOUBLE_EQ(m->Latency(u, v, rng),
                       0.01 + o.backbone_latency + 0.01);
    }
  }
}

TEST(LinkModelTest, JitterAddsBoundedDelay) {
  // Access latencies depend only on the seed and their range, so a
  // jitter-free model with the same seed gives the base latency.
  LinkModelOptions o;
  o.jitter = 0.0;
  auto flat = LinkModel::Create(4, o);
  o.jitter = 0.5;
  auto m = LinkModel::Create(4, o);
  ASSERT_TRUE(flat.ok() && m.ok());
  Rng rng(2);
  const double base = flat->Latency(0, 1, rng);
  for (int trial = 0; trial < 200; ++trial) {
    double l = m->Latency(0, 1, rng);
    EXPECT_GE(l, base);
    EXPECT_LT(l, base + 0.5);
  }
}

TEST(LinkModelTest, DeterministicPerSeed) {
  LinkModelOptions o;
  o.jitter = 0.0;
  o.seed = 7;
  auto a = LinkModel::Create(20, o);
  auto b = LinkModel::Create(20, o);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(1);
  for (NodeId u = 0; u < 20; ++u) {
    EXPECT_EQ(a->Latency(u, u, rng), b->Latency(u, u, rng));
  }
  o.seed = 8;
  auto c = LinkModel::Create(20, o);
  ASSERT_TRUE(c.ok());
  int differ = 0;
  for (NodeId u = 0; u < 20; ++u) {
    if (a->Latency(u, u, rng) != c->Latency(u, u, rng)) ++differ;
  }
  EXPECT_GT(differ, 15);
}

TEST(LinkModelTest, AsymmetricEndpointsSymmetricSum) {
  // access(u) + access(v) is symmetric even though per-node access
  // latencies differ.
  LinkModelOptions o;
  o.jitter = 0.0;
  auto m = LinkModel::Create(6, o);
  ASSERT_TRUE(m.ok());
  Rng rng(1);
  EXPECT_DOUBLE_EQ(m->Latency(2, 4, rng), m->Latency(4, 2, rng));
}

TEST(LinkModelTest, RejectsZeroLatencyLinkNamingTheEdge) {
  // All-zero latencies would give the async engines' lookahead a zero
  // lower bound; construction must fail and name the offending edge.
  LinkModelOptions o;
  o.access_latency_min = 0.0;
  o.access_latency_max = 0.0;
  o.backbone_latency = 0.0;
  o.jitter = 0.0;
  auto m = LinkModel::Create(5, o);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("zero-latency"), std::string::npos);
  // With identical (zero) access latencies the cheapest pair is 0 -> 1.
  EXPECT_NE(m.status().message().find("0 -> 1"), std::string::npos);
}

TEST(LinkModelTest, ZeroAccessAllowedWhenBackbonePositive) {
  LinkModelOptions o;
  o.access_latency_min = 0.0;
  o.access_latency_max = 0.0;
  o.backbone_latency = 0.02;
  auto m = LinkModel::Create(5, o);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->MinLatency(), 0.02);
}

TEST(LinkModelTest, MinLatencyIsTightLowerBound) {
  auto m = LinkModel::Create(30, {});
  LinkModelOptions no_jitter;
  no_jitter.jitter = 0.0;
  auto flat = LinkModel::Create(30, no_jitter);  // same access latencies
  ASSERT_TRUE(m.ok() && flat.ok());
  Rng flat_rng(1);
  double brute = std::numeric_limits<double>::infinity();
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < 30; ++v) {
      if (u != v) brute = std::min(brute, flat->Latency(u, v, flat_rng));
    }
  }
  EXPECT_DOUBLE_EQ(m->MinLatency(), brute);
  EXPECT_GT(m->MinLatency(), 0.0);
  // Sampled latencies (jitter included) never undercut the bound.
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    NodeId u = static_cast<NodeId>(rng.NextBelow(30));
    NodeId v = static_cast<NodeId>(rng.NextBelow(30));
    if (u == v) continue;
    EXPECT_GE(m->Latency(u, v, rng), m->MinLatency());
  }
}

TEST(LinkModelTest, MinLatencyInfiniteBelowTwoNodes) {
  auto zero = LinkModel::Create(0, {});
  auto one = LinkModel::Create(1, {});
  ASSERT_TRUE(zero.ok() && one.ok());
  EXPECT_TRUE(std::isinf(zero->MinLatency()));
  EXPECT_TRUE(std::isinf(one->MinLatency()));
}

TEST(LinkModelTest, SamplingDeterministicUnderStreamAt) {
  // Counter-based streams make latency draws a pure function of
  // (seed, stream, counter) — the property the parallel async engine
  // leans on for thread-count-invariant jitter.
  auto m = LinkModel::Create(12, {});
  ASSERT_TRUE(m.ok());
  Rng base(41);
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = 0; v < 12; ++v) {
      if (u == v) continue;
      Rng a = base.StreamAt(u, v);
      Rng b = base.StreamAt(u, v);
      EXPECT_EQ(m->Latency(u, v, a), m->Latency(u, v, b));
    }
  }
}

}  // namespace
}  // namespace dgt
