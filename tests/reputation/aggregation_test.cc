#include <cmath>
#include "reputation/aggregation.h"

#include "graph/generators.h"
#include "reputation/reference.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;

AggregationOptions Opts(double xi = 1e-9, uint64_t seed = 3) {
  AggregationOptions o;
  o.gossip.xi = xi;
  o.gossip.seed = seed;
  o.weights.a = 4.0;
  o.weights.b = 1.0;
  return o;
}

TEST(AggregateGlobalSingleTest, RejectsBadInput) {
  Graph g = MakePaGraph(20);
  TrustMatrix t(19);  // mismatch
  EXPECT_FALSE(AggregateGlobalSingle(g, t, 0, Opts()).ok());
  TrustMatrix t2(20);
  EXPECT_FALSE(AggregateGlobalSingle(g, t2, 25, Opts()).ok());
}

TEST(AggregateGlobalSingleTest, MatchesExactOpinatorMean) {
  Graph g = MakePaGraph(100, 2, 50);
  TrustMatrix t(100);
  FillTrust(g, &t, 51);
  const NodeId target = 7;
  auto r = AggregateGlobalSingle(g, t, target, Opts());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->stats.converged);
  double truth = ExactGlobalMeanOpinators(t, target);
  for (double est : r->estimates) EXPECT_NEAR(est, truth, 0.01);
}

TEST(AggregateGlobalSingleTest, UnratedTargetGivesZero) {
  Graph g = MakePaGraph(30);
  TrustMatrix t(30);  // nobody rated anybody
  auto r = AggregateGlobalSingle(g, t, 3, Opts());
  ASSERT_TRUE(r.ok());
  for (double est : r->estimates) EXPECT_DOUBLE_EQ(est, 0.0);
}

TEST(AggregateGclrSingleTest, MatchesExactGclrPerObserver) {
  Graph g = MakePaGraph(60, 2, 52);
  TrustMatrix t(60);
  FillTrust(g, &t, 53);
  const NodeId target = 11;
  AggregationOptions o = Opts(1e-10);
  auto r = AggregateGclrSingle(g, t, target, o);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.converged);
  for (NodeId i = 0; i < 60; ++i) {
    auto w = WeightTable::Build(t, i, o.weights).value();
    double truth =
        ExactGclr(t, g, w, target, DenominatorMode::kOpinators);
    EXPECT_NEAR(r->estimates[i], truth, 0.01) << "observer " << i;
  }
}

TEST(AggregateGclrSingleTest, AllNodesDenominatorMode) {
  Graph g = MakePaGraph(60, 2, 54);
  TrustMatrix t(60);
  FillTrust(g, &t, 55);
  const NodeId target = 5;
  AggregationOptions o = Opts(1e-10);
  o.denominator = DenominatorMode::kAllNodes;
  auto r = AggregateGclrSingle(g, t, target, o);
  ASSERT_TRUE(r.ok());
  for (NodeId i = 0; i < 60; ++i) {
    auto w = WeightTable::Build(t, i, o.weights).value();
    double truth = ExactGclr(t, g, w, target, DenominatorMode::kAllNodes);
    EXPECT_NEAR(r->estimates[i], truth, 0.01) << "observer " << i;
  }
}

TEST(AggregateGlobalVectorTest, MatchesPerColumnExact) {
  Graph g = MakePaGraph(50, 2, 58);
  TrustMatrix t(50);
  FillTrust(g, &t, 59);
  auto r = AggregateGlobalVector(g, t, Opts(1e-10));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.converged);
  auto truth = ExactGlobalMeanOpinatorsVector(t);
  for (NodeId i = 0; i < 50; ++i) {
    for (NodeId j = 0; j < 50; ++j) {
      EXPECT_NEAR(r->estimates[i][j], truth[j], 5e-3)
          << "observer " << i << " target " << j;
    }
  }
}

TEST(AggregateGclrVectorTest, MatchesSingleTargetRuns) {
  Graph g = MakePaGraph(40, 2, 60);
  TrustMatrix t(40);
  FillTrust(g, &t, 61);
  AggregationOptions o = Opts(1e-10);
  auto vec = AggregateGclrVector(g, t, o);
  ASSERT_TRUE(vec.ok());
  EXPECT_TRUE(vec->stats.converged);
  // Exact references per observer.
  for (NodeId i = 0; i < 40; ++i) {
    auto w = WeightTable::Build(t, i, o.weights).value();
    for (NodeId j = 0; j < 40; ++j) {
      double truth = ExactGclr(t, g, w, j, DenominatorMode::kOpinators);
      EXPECT_NEAR(vec->estimates[i][j], truth, 0.01)
          << "observer " << i << " target " << j;
    }
  }
}

TEST(AggregateGclrVectorTest, EstimateEqualToSentinelIsServed) {
  // Regression: twenty opinions of 0.5 about node 0 sum to 10, the ratio
  // reported for a weightless column. Observer 6's sum estimate landed on
  // exactly 10 and was served 0 instead of its GCLR score.
  const uint32_t n = 40;
  Graph g = MakePaGraph(n, 2, 1);
  TrustMatrix t(n);
  for (NodeId i = 1; i <= 20; ++i) ASSERT_TRUE(t.Set(i, 0, 0.5).ok());
  AggregationOptions o = Opts(1e-13, 5);
  o.gossip.max_steps = 20000;
  auto r = AggregateGclrVector(g, t, o);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->stats.converged);
  for (NodeId i = 0; i < n; ++i) {
    auto w = WeightTable::Build(t, i, o.weights).value();
    const double truth =
        ExactGclrVector(t, g, w, DenominatorMode::kOpinators)[0];
    EXPECT_NEAR(r->estimates[i][0], truth, 1e-9) << "observer " << i;
  }
}

TEST(AggregateGclrVectorTest, EstimatesDifferAcrossObservers) {
  // The whole point of GCLR: different observers hold different values.
  Graph g = MakePaGraph(40, 2, 62);
  TrustMatrix t(40);
  FillTrust(g, &t, 63);
  auto r = AggregateGclrVector(g, t, Opts(1e-9));
  ASSERT_TRUE(r.ok());
  int distinct_pairs = 0;
  for (NodeId j = 0; j < 40; ++j) {
    if (std::fabs(r->estimates[0][j] - r->estimates[1][j]) > 1e-6) {
      ++distinct_pairs;
    }
  }
  EXPECT_GT(distinct_pairs, 0);
}

TEST(AggregateGclrVectorTest, UniformWeightsCollapseToGlobal) {
  // a = 1 -> all weights 1 -> GCLR equals the global opinator mean.
  Graph g = MakePaGraph(40, 2, 64);
  TrustMatrix t(40);
  FillTrust(g, &t, 65);
  AggregationOptions o = Opts(1e-10);
  o.weights.a = 1.0;
  auto r = AggregateGclrVector(g, t, o);
  ASSERT_TRUE(r.ok());
  auto truth = ExactGlobalMeanOpinatorsVector(t);
  for (NodeId i = 0; i < 40; ++i) {
    for (NodeId j = 0; j < 40; ++j) {
      EXPECT_NEAR(r->estimates[i][j], truth[j], 5e-3);
    }
  }
}

TEST(AggregationTest, GclrVectorRejectsNonFiniteXi) {
  // Regression: a NaN xi ran the sparse engine to its max_steps cap and
  // returned OK with converged = false.
  Graph g = MakePaGraph(20, 2, 74);
  TrustMatrix t(20);
  FillTrust(g, &t, 75);
  AggregationOptions o = Opts();
  o.gossip.xi = std::nan("");
  EXPECT_FALSE(AggregateGclrVector(g, t, o).ok());
}

TEST(AggregationTest, GclrVectorRejectsOverflowingWeights) {
  // Regression: these weight parameters passed validation, and the run
  // returned OK with hundreds of its 1,600 estimates non-finite.
  Graph g = MakePaGraph(40, 2, 7);
  TrustMatrix t(40);
  FillTrust(g, &t, 3);
  const double cases[][2] = {{HUGE_VAL, 1.0}, {4.0, HUGE_VAL}, {1e300, 2.0}};
  for (const auto& [a, b] : cases) {
    AggregationOptions o = Opts(1e-6);
    o.weights.a = a;
    o.weights.b = b;
    EXPECT_EQ(AggregateGclrVector(g, t, o).status().code(),
              StatusCode::kInvalidArgument)
        << "a=" << a << " b=" << b;
  }
}

TEST(AggregationTest, UniformAndDifferentialShareTheLimit) {
  Graph g = MakePaGraph(80, 2, 66);
  TrustMatrix t(80);
  FillTrust(g, &t, 67);
  AggregationOptions diff = Opts(1e-10);
  AggregationOptions unif = Opts(1e-10);
  unif.gossip.strategy = PushStrategy::kUniform;
  auto a = AggregateGlobalSingle(g, t, 9, diff);
  auto b = AggregateGlobalSingle(g, t, 9, unif);
  ASSERT_TRUE(a.ok() && b.ok());
  for (NodeId i = 0; i < 80; ++i) {
    EXPECT_NEAR(a->estimates[i], b->estimates[i], 5e-3);
  }
}

TEST(AggregationTest, StatsReported) {
  Graph g = MakePaGraph(50, 2, 68);
  TrustMatrix t(50);
  FillTrust(g, &t, 69);
  auto r = AggregateGclrSingle(g, t, 1, Opts(1e-6));
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.steps, 0u);
  EXPECT_GT(r->stats.gossip_messages, 0u);
  EXPECT_GT(r->stats.control_messages, 2 * g.num_edges());
}

TEST(AggregationTest, EstimatesStayInPlausibleRange) {
  Graph g = MakePaGraph(60, 2, 70);
  TrustMatrix t(60);
  FillTrust(g, &t, 71);
  auto r = AggregateGclrVector(g, t, Opts(1e-8));
  ASSERT_TRUE(r.ok());
  for (const auto& row : r->estimates) {
    for (double v : row) {
      EXPECT_GE(v, -0.05);
      EXPECT_LE(v, 1.05);
    }
  }
}

}  // namespace
}  // namespace dgt
