#include "gossip/scalar_engine.h"

#include <cmath>
#include <numeric>
#include <tuple>

#include "graph/generators.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;
using testing_util::Mean;
using testing_util::RandomValues;

GossipOptions Opts(PushStrategy strategy = PushStrategy::kDifferential,
                   double xi = 1e-7, uint64_t seed = 3) {
  GossipOptions o;
  o.strategy = strategy;
  o.xi = xi;
  o.seed = seed;
  return o;
}

TEST(ScalarEngineTest, RejectsBadInputSizes) {
  Graph g = MakePaGraph(20);
  ScalarPushSum engine(&g, Opts());
  EXPECT_FALSE(engine.Run({1.0}, std::vector<double>(20, 1.0)).ok());
  EXPECT_FALSE(engine.Run(std::vector<double>(20, 1.0), {1.0}).ok());
  EXPECT_FALSE(engine
                   .Run(std::vector<double>(20, 1.0),
                        std::vector<double>(20, 1.0), {1.0})
                   .ok());
}

TEST(ScalarEngineTest, RejectsNegativeWeights) {
  Graph g = MakePaGraph(20);
  ScalarPushSum engine(&g, Opts());
  std::vector<double> y(20, 1.0), w(20, 1.0);
  w[3] = -0.5;
  EXPECT_FALSE(engine.Run(y, w).ok());
  // Regression: a NaN weight or value ran to the max_steps cap and
  // returned OK with NaN ratios, and an infinite weight reported
  // convergence with every ratio 0. Every y, g and c must be finite.
  const std::vector<double> ones(20, 1.0);
  EXPECT_TRUE(engine.Run(ones, ones, ones).ok());
  for (double bad : {std::nan(""), HUGE_VAL}) {
    std::vector<double> v(20, 0.5);
    v[5] = bad;
    EXPECT_FALSE(engine.Run(ones, v).ok()) << "g=" << bad;
    EXPECT_FALSE(engine.Run(v, ones).ok()) << "y=" << bad;
    EXPECT_FALSE(engine.Run(ones, ones, v).ok()) << "c=" << bad;
  }
}

TEST(ScalarEngineTest, RejectsNonPositiveXi) {
  Graph g = MakePaGraph(20);
  GossipOptions o = Opts();
  o.xi = 0.0;
  ScalarPushSum engine(&g, o);
  EXPECT_FALSE(
      engine.Run(std::vector<double>(20, 1.0), std::vector<double>(20, 1.0))
          .ok());
}

TEST(ScalarEngineTest, RejectsNonFiniteXi) {
  // Regression: only xi <= 0 was refused, so a NaN tolerance ran to the
  // max_steps cap and reported an OK, unconverged result.
  Graph g = MakePaGraph(20);
  for (double xi : {std::nan(""), HUGE_VAL}) {
    GossipOptions o = Opts();
    o.xi = xi;
    ScalarPushSum engine(&g, o);
    EXPECT_FALSE(
        engine.Run(std::vector<double>(20, 1.0), std::vector<double>(20, 1.0))
            .ok())
        << "xi=" << xi;
  }
}

TEST(ScalarEngineTest, MassConservationExact) {
  Graph g = MakePaGraph(100);
  auto y0 = RandomValues(100, 5);
  std::vector<double> g0(100, 1.0);
  ScalarPushSum engine(&g, Opts());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double sum_y = std::accumulate(r->values.begin(), r->values.end(), 0.0);
  double sum_g = std::accumulate(r->weights.begin(), r->weights.end(), 0.0);
  EXPECT_NEAR(sum_y, std::accumulate(y0.begin(), y0.end(), 0.0), 1e-9);
  EXPECT_NEAR(sum_g, 100.0, 1e-9);
}

TEST(ScalarEngineTest, MassConservationUnderPacketLoss) {
  Graph g = MakePaGraph(100);
  auto y0 = RandomValues(100, 6);
  std::vector<double> g0(100, 1.0);
  GossipOptions o = Opts();
  o.packet_loss_prob = 0.25;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double sum_y = std::accumulate(r->values.begin(), r->values.end(), 0.0);
  EXPECT_NEAR(sum_y, std::accumulate(y0.begin(), y0.end(), 0.0), 1e-9);
}

TEST(ScalarEngineTest, ConvergesToAverageOnPaGraph) {
  Graph g = MakePaGraph(200);
  auto y0 = RandomValues(200, 7);
  std::vector<double> g0(200, 1.0);
  ScalarPushSum engine(&g, Opts());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  double truth = Mean(y0);
  for (double v : r->ratios) EXPECT_NEAR(v, truth, 5e-3);
}

TEST(ScalarEngineTest, ConvergesOnCompleteGraph) {
  auto g = GenerateComplete(50).value();
  auto y0 = RandomValues(50, 8);
  std::vector<double> g0(50, 1.0);
  ScalarPushSum engine(&g, Opts());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double truth = Mean(y0);
  for (double v : r->ratios) EXPECT_NEAR(v, truth, 5e-3);
}

TEST(ScalarEngineTest, ConvergesOnRing) {
  auto g = GenerateRing(30).value();
  auto y0 = RandomValues(30, 9);
  std::vector<double> g0(30, 1.0);
  ScalarPushSum engine(&g, Opts(PushStrategy::kDifferential, 1e-9));
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double truth = Mean(y0);
  for (double v : r->ratios) EXPECT_NEAR(v, truth, 5e-3);
}

TEST(ScalarEngineTest, OneHotWeightEstimatesSum) {
  Graph g = MakePaGraph(100);
  auto y0 = RandomValues(100, 10);
  std::vector<double> g0(100, 0.0);
  g0[0] = 1.0;
  ScalarPushSum engine(&g, Opts(PushStrategy::kDifferential, 1e-9));
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double total = std::accumulate(y0.begin(), y0.end(), 0.0);
  for (double v : r->ratios) {
    EXPECT_NEAR(v, total, 0.02 * total);
  }
}

TEST(ScalarEngineTest, SubsetWeightEstimatesSubsetAverage) {
  // Only nodes with odd id carry weight; ratio converges to the mean over
  // weighted nodes (Algorithm 1's average-over-opinators).
  Graph g = MakePaGraph(80);
  auto y0 = RandomValues(80, 11);
  std::vector<double> g0(80, 0.0);
  double sum = 0.0;
  int count = 0;
  for (uint32_t i = 1; i < 80; i += 2) {
    g0[i] = 1.0;
    sum += y0[i];
    ++count;
  }
  for (uint32_t i = 0; i < 80; i += 2) y0[i] = 0.0;  // non-opinators push 0
  ScalarPushSum engine(&g, Opts(PushStrategy::kDifferential, 1e-9));
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double truth = sum / count;
  for (double v : r->ratios) EXPECT_NEAR(v, truth, 5e-3);
}

TEST(ScalarEngineTest, CountChannelEstimatesCardinality) {
  Graph g = MakePaGraph(100);
  std::vector<double> y0(100, 0.0), g0(100, 0.0), c0(100, 0.0);
  g0[0] = 1.0;
  // 40 nodes "have an opinion".
  for (uint32_t i = 0; i < 40; ++i) c0[i] = 1.0;
  ScalarPushSum engine(&g, Opts(PushStrategy::kDifferential, 1e-9));
  auto r = engine.Run(y0, g0, c0);
  ASSERT_TRUE(r.ok());
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_GT(r->weights[i], 0.0);
    EXPECT_NEAR(r->counts[i] / r->weights[i], 40.0, 1.0);
  }
}

TEST(ScalarEngineTest, SentinelReportedWhileWeightZero) {
  // A two-step run cannot spread weight everywhere on a large ring; check
  // the sentinel shows up in ratios for weightless nodes.
  auto g = GenerateRing(64).value();
  std::vector<double> y0(64, 0.0), g0(64, 0.0);
  g0[0] = 1.0;
  y0[0] = 3.0;
  GossipOptions o = Opts(PushStrategy::kUniform, 1e-9);
  o.max_steps = 2;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->converged);
  int sentinels = 0;
  for (double v : r->ratios) {
    if (v == kRatioSentinel) ++sentinels;
  }
  EXPECT_GT(sentinels, 50);
}

TEST(ScalarEngineTest, DeterministicAcrossRuns) {
  Graph g = MakePaGraph(150);
  auto y0 = RandomValues(150, 12);
  std::vector<double> g0(150, 1.0);
  ScalarPushSum a(&g, Opts()), b(&g, Opts());
  auto ra = a.Run(y0, g0);
  auto rb = b.Run(y0, g0);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->steps, rb->steps);
  EXPECT_EQ(ra->gossip_messages, rb->gossip_messages);
  EXPECT_EQ(ra->ratios, rb->ratios);
}

TEST(ScalarEngineTest, SeedChangesTrajectoryNotLimit) {
  Graph g = MakePaGraph(150);
  auto y0 = RandomValues(150, 13);
  std::vector<double> g0(150, 1.0);
  auto ra = ScalarPushSum(&g, Opts(PushStrategy::kDifferential, 1e-8, 1))
                .Run(y0, g0);
  auto rb = ScalarPushSum(&g, Opts(PushStrategy::kDifferential, 1e-8, 2))
                .Run(y0, g0);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NE(ra->ratios, rb->ratios);
  double truth = Mean(y0);
  for (uint32_t i = 0; i < 150; ++i) {
    EXPECT_NEAR(ra->ratios[i], truth, 5e-3);
    EXPECT_NEAR(rb->ratios[i], truth, 5e-3);
  }
}

TEST(ScalarEngineTest, TraceRecordsEveryStep) {
  Graph g = MakePaGraph(30);
  auto y0 = RandomValues(30, 14);
  std::vector<double> g0(30, 1.0);
  GossipOptions o = Opts();
  o.track_trace = true;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->trace.size(), r->steps);
  for (const auto& row : r->trace) EXPECT_EQ(row.size(), 30u);
  // Last trace row equals the final ratios.
  EXPECT_EQ(r->trace.back(), r->ratios);
}

TEST(ScalarEngineTest, IsolatedNodesStopImmediately) {
  Graph g(5);  // no edges at all
  std::vector<double> y0(5, 1.0), g0(5, 1.0);
  ScalarPushSum engine(&g, Opts());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->steps, 0u);
  // Isolated nodes keep their own value.
  for (double v : r->ratios) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(ScalarEngineTest, DisconnectedComponentsConvergeSeparately) {
  // Two triangles, no cross edges.
  auto g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {0, 2},
                                {3, 4}, {4, 5}, {3, 5}});
  ASSERT_TRUE(g.ok());
  std::vector<double> y0 = {0.0, 0.0, 0.3, 0.9, 0.9, 0.9};
  std::vector<double> g0(6, 1.0);
  ScalarPushSum engine(&*g, Opts(PushStrategy::kDifferential, 1e-10));
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(r->ratios[i], 0.1, 1e-3);
  for (int i = 3; i < 6; ++i) EXPECT_NEAR(r->ratios[i], 0.9, 1e-3);
}

TEST(ScalarEngineTest, MaxStepsCapRespected) {
  Graph g = MakePaGraph(500);
  auto y0 = RandomValues(500, 15);
  std::vector<double> g0(500, 1.0);
  GossipOptions o = Opts(PushStrategy::kUniform, 1e-12);
  o.max_steps = 5;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->steps, 5u);
  EXPECT_FALSE(r->converged);
}

TEST(ScalarEngineTest, DifferentialPushCountsMatchGraph) {
  Graph g = MakePaGraph(100);
  ScalarPushSum engine(&g, Opts());
  const auto& k = engine.push_counts();
  ASSERT_EQ(k.size(), 100u);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_EQ(k[u], g.DifferentialPushCount(u));
  }
}

TEST(ScalarEngineTest, UniformStrategyPushesOnce) {
  Graph g = MakePaGraph(100);
  ScalarPushSum engine(&g, Opts(PushStrategy::kUniform));
  for (uint32_t k : engine.push_counts()) EXPECT_EQ(k, 1u);
}

TEST(ScalarEngineTest, MessageCountersPopulated) {
  Graph g = MakePaGraph(100);
  auto y0 = RandomValues(100, 16);
  std::vector<double> g0(100, 1.0);
  ScalarPushSum engine(&g, Opts());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->gossip_messages, 0u);
  // Control >= degree announcements (2E) + convergence announcements.
  EXPECT_GE(r->control_messages, g.DegreeSum());
  EXPECT_GT(r->mean_messages_per_active_node_step, 1.0);
  EXPECT_LT(r->mean_messages_per_active_node_step, 5.0);
}

TEST(ScalarEngineTest, UniformPushChargesNoDegreeAnnouncements) {
  // Regression: the one-time degree announcements were charged even
  // under plain push, where k_i is constant and no degrees are needed;
  // that inflated the plain-push comparator in Table 2.
  Graph g = MakePaGraph(100);
  auto y0 = RandomValues(100, 16);
  std::vector<double> g0(100, 1.0);
  ScalarPushSum unif(&g, Opts(PushStrategy::kUniform, 1e-6));
  auto ur = unif.Run(y0, g0);
  ASSERT_TRUE(ur.ok());
  ASSERT_TRUE(ur->converged);
  // Convergence announcements only: each node announces exactly once.
  EXPECT_EQ(ur->control_messages, g.DegreeSum());

  ScalarPushSum diff(&g, Opts(PushStrategy::kDifferential, 1e-6));
  auto dr = diff.Run(y0, g0);
  ASSERT_TRUE(dr.ok());
  ASSERT_TRUE(dr->converged);
  // Differential push still pays the degree-announcement round.
  EXPECT_EQ(dr->control_messages, 2 * g.DegreeSum());
}

// Convergence quality across strategy / topology / loss sweeps.
class ScalarSweepTest
    : public ::testing::TestWithParam<std::tuple<PushStrategy, double>> {};

TEST_P(ScalarSweepTest, ConvergesNearTruthWithLoss) {
  auto [strategy, loss] = GetParam();
  Graph g = MakePaGraph(150, 2, 99);
  auto y0 = RandomValues(150, 17);
  std::vector<double> g0(150, 1.0);
  GossipOptions o = Opts(strategy, 1e-8);
  o.packet_loss_prob = loss;
  o.max_steps = 200000;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  double truth = Mean(y0);
  double mean_err = 0;
  for (double v : r->ratios) mean_err += std::fabs(v - truth);
  mean_err /= 150;
  EXPECT_LT(mean_err, 2e-3) << "strategy/loss sweep";
}

INSTANTIATE_TEST_SUITE_P(
    StrategyAndLoss, ScalarSweepTest,
    ::testing::Combine(::testing::Values(PushStrategy::kUniform,
                                         PushStrategy::kDifferential),
                       ::testing::Values(0.0, 0.1, 0.3)));

}  // namespace
}  // namespace dgt
