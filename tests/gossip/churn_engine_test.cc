#include "gossip/churn_engine.h"

#include <cmath>

#include "gossip/scalar_engine.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;
using testing_util::RandomValues;

GossipOptions Gossip(double xi = 1e-7, uint64_t seed = 3) {
  GossipOptions o;
  o.xi = xi;
  o.seed = seed;
  return o;
}

TEST(ChurnEngineTest, RejectsBadInput) {
  Graph g = MakePaGraph(20);
  ChurnPushSum engine(g, Gossip(), {});
  EXPECT_FALSE(engine.Run({1.0}, std::vector<double>(20, 1.0)).ok());
  // Regression: only g0 < 0 was refused, so a NaN g0 ran to the step cap
  // and returned NaN ratios, and an infinite g0 reported convergence with
  // every ratio 0. Every y0 and g0 must be finite.
  for (double w : {std::nan(""), HUGE_VAL}) {
    std::vector<double> g0(20, 1.0);
    g0[5] = w;
    EXPECT_FALSE(engine.Run(std::vector<double>(20, 0.5), g0).ok())
        << "g0=" << w;
  }
  std::vector<double> y0(20, 0.5);
  y0[5] = std::nan("");
  EXPECT_FALSE(engine.Run(y0, std::vector<double>(20, 1.0)).ok());
  ChurnOptions bad;
  bad.leave_prob = 1.0;
  EXPECT_FALSE(ChurnPushSum(g, Gossip(), bad)
                   .Run(std::vector<double>(20, 0.5),
                        std::vector<double>(20, 1.0))
                   .ok());
  bad = {};
  bad.join_rate = -1.0;
  EXPECT_FALSE(ChurnPushSum(g, Gossip(), bad)
                   .Run(std::vector<double>(20, 0.5),
                        std::vector<double>(20, 1.0))
                   .ok());
  // Regression: NaN passed both range checks, and a join rate of
  // infinity never left the per-step join loop.
  for (double p : {std::nan(""), HUGE_VAL}) {
    bad = {};
    bad.leave_prob = p;
    EXPECT_FALSE(ChurnPushSum(g, Gossip(), bad)
                     .Run(std::vector<double>(20, 0.5),
                          std::vector<double>(20, 1.0))
                     .ok())
        << "leave_prob=" << p;
    bad = {};
    bad.join_rate = p;
    EXPECT_FALSE(ChurnPushSum(g, Gossip(), bad)
                     .Run(std::vector<double>(20, 0.5),
                          std::vector<double>(20, 1.0))
                     .ok())
        << "join_rate=" << p;
  }
  for (double loss : {std::nan(""), -0.5, 1.5}) {
    GossipOptions lossy = Gossip();
    lossy.packet_loss_prob = loss;
    EXPECT_FALSE(ChurnPushSum(g, lossy, {})
                     .Run(std::vector<double>(20, 0.5),
                          std::vector<double>(20, 1.0))
                     .ok())
        << "loss=" << loss;
  }
  // Regression: with no streak required every node announced at its
  // first evidence, and the run reported converged.
  GossipOptions no_streak = Gossip();
  no_streak.convergence_rounds = 0;
  EXPECT_FALSE(ChurnPushSum(g, no_streak, {})
                   .Run(std::vector<double>(20, 0.5),
                        std::vector<double>(20, 1.0))
                   .ok());
}

TEST(ChurnEngineTest, RejectsNegativeWeightsAndNonFiniteXi) {
  // Regression: the churn engine accepted negative g0 (the scalar engine
  // refuses it) and any xi that was not <= 0, NaN included.
  Graph g = MakePaGraph(20);
  std::vector<double> y(20, 0.5), w(20, 1.0);
  w[4] = -1.0;
  EXPECT_FALSE(ChurnPushSum(g, Gossip(), {}).Run(y, w).ok());
  w[4] = 1.0;
  for (double xi : {std::nan(""), HUGE_VAL}) {
    EXPECT_FALSE(ChurnPushSum(g, Gossip(xi), {}).Run(y, w).ok())
        << "xi=" << xi;
  }
}

TEST(ChurnEngineTest, NoChurnMatchesPlainGossip) {
  Graph g = MakePaGraph(80, 2, 30);
  auto y0 = RandomValues(80, 4);
  std::vector<double> g0(80, 1.0);
  ChurnOptions churn;  // zero rates
  ChurnPushSum engine(g, Gossip(1e-8), churn);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_EQ(r->departures, 0u);
  EXPECT_EQ(r->arrivals, 0u);
  EXPECT_EQ(r->live_count, 80u);
  double truth = testing_util::Mean(y0);
  EXPECT_NEAR(r->expected_ratio, truth, 1e-12);
  for (NodeId i = 0; i < 80; ++i) {
    EXPECT_NEAR(r->ratios[i], truth, 5e-3);
  }
}

TEST(ChurnEngineTest, StoppedOverlayWithoutChurnTakesNoStep) {
  // An edgeless pair is stopped before the first step. With churn off
  // from the start there is nothing left to run, so the churn loop must
  // take no step, exactly as ScalarPushSum takes none.
  Graph g(2);
  const std::vector<double> y0 = {0.25, 0.75};
  const std::vector<double> g0(2, 1.0);
  ChurnOptions no_churn;
  no_churn.churn_steps = 0;
  auto scalar = ScalarPushSum(&g, Gossip(1e-6)).Run(y0, g0);
  auto churn = ChurnPushSum(g, Gossip(1e-6), no_churn).Run(y0, g0);
  ASSERT_TRUE(scalar.ok());
  ASSERT_TRUE(churn.ok());
  EXPECT_EQ(scalar->steps, 0u);
  EXPECT_EQ(churn->steps, scalar->steps);
  EXPECT_TRUE(churn->converged);
  EXPECT_EQ(churn->gossip_messages, 0u);
}

TEST(ChurnEngineTest, DeparturesHandOverMass) {
  Graph g = MakePaGraph(100, 2, 31);
  auto y0 = RandomValues(100, 5);
  std::vector<double> g0(100, 1.0);
  ChurnOptions churn;
  churn.leave_prob = 0.01;
  churn.churn_steps = 30;
  ChurnPushSum engine(g, Gossip(1e-7), churn);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->departures, 0u);
  // Mass conservation through handover: the expected ratio is still the
  // initial average (no joins), and survivors converge to it.
  double truth = testing_util::Mean(y0);
  EXPECT_NEAR(r->expected_ratio, truth, 1e-12);
  ASSERT_TRUE(r->converged);
  double err = 0;
  uint32_t live = 0;
  for (NodeId i = 0; i < r->ratios.size(); ++i) {
    if (!r->alive[i]) continue;
    err += std::fabs(r->ratios[i] - truth);
    ++live;
  }
  EXPECT_EQ(live, r->live_count);
  EXPECT_LT(err / live, 0.02);
}

TEST(ChurnEngineTest, ArrivalsJoinAndShiftTheAverage) {
  Graph g = MakePaGraph(60, 2, 32);
  std::vector<double> y0(60, 0.2), g0(60, 1.0);
  ChurnOptions churn;
  churn.join_rate = 1.0;  // one new node per step
  churn.churn_steps = 40;
  churn.seed = 77;
  ChurnPushSum engine(g, Gossip(1e-7), churn);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->arrivals, 40u);
  EXPECT_EQ(r->live_count, 100u);
  // Joined values average ~0.5, so the target moved above 0.2.
  EXPECT_GT(r->expected_ratio, 0.25);
  ASSERT_TRUE(r->converged);
  for (NodeId i = 0; i < r->ratios.size(); ++i) {
    if (!r->alive[i]) continue;
    EXPECT_NEAR(r->ratios[i], r->expected_ratio, 0.02) << "node " << i;
  }
}

TEST(ChurnEngineTest, SimultaneousJoinAndLeave) {
  Graph g = MakePaGraph(100, 2, 33);
  auto y0 = RandomValues(100, 6);
  std::vector<double> g0(100, 1.0);
  ChurnOptions churn;
  churn.leave_prob = 0.005;
  churn.join_rate = 0.5;
  churn.churn_steps = 40;
  ChurnPushSum engine(g, Gossip(1e-7), churn);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  EXPECT_GT(r->departures, 0u);
  EXPECT_GT(r->arrivals, 0u);
  double err = 0;
  uint32_t live = 0;
  for (NodeId i = 0; i < r->ratios.size(); ++i) {
    if (!r->alive[i]) continue;
    err += std::fabs(r->ratios[i] - r->expected_ratio);
    ++live;
  }
  EXPECT_LT(err / live, 0.05);
}

TEST(ChurnEngineTest, DeterministicPerSeeds) {
  Graph g = MakePaGraph(50, 2, 34);
  auto y0 = RandomValues(50, 7);
  std::vector<double> g0(50, 1.0);
  ChurnOptions churn;
  churn.leave_prob = 0.01;
  churn.join_rate = 0.3;
  churn.churn_steps = 20;
  auto a = ChurnPushSum(g, Gossip(1e-6, 5), churn).Run(y0, g0);
  auto b = ChurnPushSum(g, Gossip(1e-6, 5), churn).Run(y0, g0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ratios, b->ratios);
  EXPECT_EQ(a->departures, b->departures);
  EXPECT_EQ(a->arrivals, b->arrivals);
}

TEST(ChurnEngineTest, HeavyChurnStillTerminates) {
  Graph g = MakePaGraph(80, 2, 35);
  auto y0 = RandomValues(80, 8);
  std::vector<double> g0(80, 1.0);
  ChurnOptions churn;
  churn.leave_prob = 0.03;
  churn.join_rate = 2.0;
  churn.churn_steps = 60;
  GossipOptions go = Gossip(1e-5);
  go.max_steps = 20000;
  ChurnPushSum engine(g, go, churn);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged) << "steps=" << r->steps;
  EXPECT_GT(r->arrivals, 60u);
}

TEST(ChurnEngineTest, CapacityBoundsJoins) {
  Graph g = MakePaGraph(20, 2, 36);
  std::vector<double> y0(20, 0.5), g0(20, 1.0);
  // Regression: the join loop subtracted one per join past capacity, and
  // above 2^53 the subtraction no longer changed the rate, so 1e17 never
  // left it.
  for (double rate : {5.0, 1e17}) {
    ChurnOptions churn;
    churn.join_rate = rate;
    churn.churn_steps = 10;
    churn.max_nodes = 25;
    ChurnPushSum engine(g, Gossip(1e-6), churn);
    auto r = engine.Run(y0, g0);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->ratios.size(), 25u) << "join_rate=" << rate;
    EXPECT_EQ(r->arrivals, 5u) << "join_rate=" << rate;
  }
}

}  // namespace
}  // namespace dgt
