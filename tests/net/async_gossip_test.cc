#include <cmath>
#include "net/async_gossip.h"

#include <numeric>

#include "graph/generators.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;
using testing_util::Mean;
using testing_util::RandomValues;

AsyncGossipOptions Opts(double xi = 1e-6, uint64_t seed = 3) {
  AsyncGossipOptions o;
  o.xi = xi;
  o.seed = seed;
  o.max_time = 50000.0;
  return o;
}

TEST(AsyncGossipTest, RejectsBadInput) {
  Graph g = MakePaGraph(20);
  AsyncPushSum engine(&g, Opts());
  EXPECT_FALSE(engine.Run({1.0}, std::vector<double>(20, 1.0)).ok());
  std::vector<double> y(20, 1.0), w(20, 1.0);
  w[0] = -1.0;
  EXPECT_FALSE(engine.Run(y, w).ok());
  // Regression: a NaN weight returned OK with every ratio NaN. Every y
  // and g must be finite.
  for (double bad : {std::nan(""), HUGE_VAL}) {
    std::vector<double> v(20, 0.5);
    v[5] = bad;
    EXPECT_FALSE(engine.Run(y, v).ok()) << "g=" << bad;
    EXPECT_FALSE(engine.Run(v, y).ok()) << "y=" << bad;
  }
  AsyncGossipOptions bad = Opts();
  bad.xi = 0.0;
  EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                   .ok());
  // Regression: a NaN xi ran to max_time and reported OK, unconverged.
  for (double xi : {std::nan(""), HUGE_VAL}) {
    bad = Opts();
    bad.xi = xi;
    EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                     .ok())
        << "xi=" << xi;
  }
  bad = Opts();
  bad.push_period = 0.0;
  EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                   .ok());
  bad = Opts();
  bad.period_jitter = 1.0;
  EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                   .ok());
  // Regression: a NaN or negative time cap returned OK with
  // converged = false, even from a run that had stopped.
  for (double v : {std::nan(""), -1.0}) {
    bad = Opts();
    bad.max_time = v;
    EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                     .ok())
        << "max_time=" << v;
  }
  // Regression: a NaN push period crashed the run and a NaN jitter ran
  // without jitter; infinite values are rejected as well.
  for (double v : {std::nan(""), HUGE_VAL}) {
    bad = Opts();
    bad.push_period = v;
    EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                     .ok())
        << "push_period=" << v;
    bad = Opts();
    bad.period_jitter = v;
    EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                     .ok())
        << "period_jitter=" << v;
  }
  // Regression: a NaN or negative loss probability ran lossless, and one
  // above 1 lost every push until max_time.
  for (double loss : {std::nan(""), -0.5, 1.5}) {
    bad = Opts();
    bad.packet_loss_prob = loss;
    EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                     .ok())
        << "loss=" << loss;
  }
  // Regression: with no streak required every node announced at its
  // first evidence, and the run reported converged.
  bad = Opts();
  bad.convergence_rounds = 0;
  EXPECT_FALSE(AsyncPushSum(&g, bad).Run(y, std::vector<double>(20, 1.0))
                   .ok());
}

TEST(AsyncGossipTest, ConvergesToAverage) {
  Graph g = MakePaGraph(100, 2, 21);
  auto y0 = RandomValues(100, 5);
  std::vector<double> g0(100, 1.0);
  AsyncPushSum engine(&g, Opts(1e-7));
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  double truth = Mean(y0);
  double mean_err = 0;
  for (double v : r->ratios) mean_err += std::fabs(v - truth);
  EXPECT_LT(mean_err / 100, 5e-3);
}

TEST(AsyncGossipTest, MassConservedIncludingInFlight) {
  // After the run drains the event queue, all mass is node-resident again
  // and must sum to the initial mass exactly.
  Graph g = MakePaGraph(80, 2, 22);
  auto y0 = RandomValues(80, 6);
  std::vector<double> g0(80, 1.0);
  AsyncPushSum engine(&g, Opts(1e-6));
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double sum_y = std::accumulate(r->values.begin(), r->values.end(), 0.0);
  double sum_g = std::accumulate(r->weights.begin(), r->weights.end(), 0.0);
  EXPECT_NEAR(sum_y, std::accumulate(y0.begin(), y0.end(), 0.0), 1e-9);
  EXPECT_NEAR(sum_g, 80.0, 1e-9);
}

TEST(AsyncGossipTest, MassConservedUnderLoss) {
  Graph g = MakePaGraph(60, 2, 23);
  auto y0 = RandomValues(60, 7);
  std::vector<double> g0(60, 1.0);
  AsyncGossipOptions o = Opts(1e-6);
  o.packet_loss_prob = 0.2;
  AsyncPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  double sum_y = std::accumulate(r->values.begin(), r->values.end(), 0.0);
  EXPECT_NEAR(sum_y, std::accumulate(y0.begin(), y0.end(), 0.0), 1e-9);
}

TEST(AsyncGossipTest, DeterministicPerSeed) {
  Graph g = MakePaGraph(50, 2, 24);
  auto y0 = RandomValues(50, 8);
  std::vector<double> g0(50, 1.0);
  auto a = AsyncPushSum(&g, Opts(1e-6, 9)).Run(y0, g0);
  auto b = AsyncPushSum(&g, Opts(1e-6, 9)).Run(y0, g0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ratios, b->ratios);
  EXPECT_EQ(a->gossip_messages, b->gossip_messages);
  EXPECT_DOUBLE_EQ(a->sim_time, b->sim_time);
}

TEST(AsyncGossipTest, TimeCapClampsSimTimeAndConservesMass) {
  // Regression: the run loops used to check the cap only *before*
  // RunNext(), so the first event past it still executed (sim_time could
  // exceed max_time) and the drain loop dropped every delivery scheduled
  // past the cap (in-flight mass vanished from the reported totals).
  Graph g = MakePaGraph(120, 2, 31);
  auto y0 = RandomValues(120, 14);
  std::vector<double> g0(120, 1.0);
  AsyncGossipOptions o = Opts(1e-12, 32);
  o.convergence_rounds = 1000;  // cannot converge: the cap must bind
  o.max_time = 2.6;
  auto r = AsyncPushSum(&g, o).Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->converged);
  EXPECT_LE(r->sim_time, o.max_time);
  double sum_y = std::accumulate(r->values.begin(), r->values.end(), 0.0);
  double sum_g = std::accumulate(r->weights.begin(), r->weights.end(), 0.0);
  EXPECT_NEAR(sum_y, std::accumulate(y0.begin(), y0.end(), 0.0), 1e-9);
  EXPECT_NEAR(sum_g, 120.0, 1e-9);
}

TEST(AsyncGossipTest, StopsOnAnnouncementArrivalNotNextFiring) {
  // Two nodes, constant link latency L (no access/backbone/jitter
  // randomness), no period jitter: every firing of node i happens at
  // t_i + k (t_i = its random start offset), and every convergence
  // announcement arrives at a firing time + L. The later-converging node
  // stops at its own firing; the other must stop when that announcement
  // *arrives* — so the reported stop time is (some firing) + L, never a
  // grid point. Before the fix the receiver waited for its next firing,
  // putting sim_time back on the firing grid (and one period late).
  Graph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto run = [&](double backbone, uint64_t seed) {
    AsyncGossipOptions o;
    o.seed = seed;
    o.xi = 1e-4;
    o.push_period = 1.0;
    o.period_jitter = 0.0;
    o.max_time = 10000.0;
    o.link.access_latency_min = 0.02;
    o.link.access_latency_max = 0.02;
    o.link.backbone_latency = backbone;
    o.link.jitter = 0.0;
    return AsyncPushSum(&g, o).Run({0.2, 0.8}, {1.0, 1.0});
  };
  const uint64_t seed = 5;
  const double latency = 0.02 + 0.10 + 0.02;
  auto r = run(0.10, seed);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  // The start offset of node i is the first draw of its counter-based
  // per-event stream (seed, node i, counter 0).
  Rng probe(seed);
  const double t0 = probe.StreamAt(0, 0).NextDouble(0.0, 1.0);
  const double t1 = probe.StreamAt(1, 0).NextDouble(0.0, 1.0);
  auto on_grid_of = [&](double time, double offset) {
    const double frac = std::fmod(time - offset, 1.0);
    return std::min(frac, 1.0 - frac) < 1e-9;
  };
  // Stop time sits one latency after a firing, not on a firing.
  EXPECT_TRUE(on_grid_of(r->sim_time - latency, t0) ||
              on_grid_of(r->sim_time - latency, t1))
      << "sim_time " << r->sim_time << " is not firing + latency";
  EXPECT_FALSE(on_grid_of(r->sim_time, t0) || on_grid_of(r->sim_time, t1))
      << "sim_time " << r->sim_time << " sits on the firing grid";
  // Cross-check: nudging the constant latency shifts the stop time by
  // exactly the nudge (the announcement arrival moved with it), while
  // the protocol trajectory — message counts included — is unchanged.
  auto r2 = run(0.13, seed);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->converged);
  EXPECT_EQ(r->gossip_messages, r2->gossip_messages);
  EXPECT_NEAR(r2->sim_time - r->sim_time, 0.03, 1e-9);
}

TEST(AsyncGossipTest, TimeCapReported) {
  Graph g = MakePaGraph(200, 2, 25);
  auto y0 = RandomValues(200, 10);
  std::vector<double> g0(200, 1.0);
  AsyncGossipOptions o = Opts(1e-12);
  o.max_time = 3.0;  // a handful of firings only
  AsyncPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->converged);
}

TEST(AsyncGossipTest, SimTimeScalesWithPushPeriod) {
  Graph g = MakePaGraph(60, 2, 26);
  auto y0 = RandomValues(60, 11);
  std::vector<double> g0(60, 1.0);
  AsyncGossipOptions slow = Opts(1e-5);
  slow.push_period = 2.0;
  AsyncGossipOptions fast = Opts(1e-5);
  fast.push_period = 0.5;
  auto rs = AsyncPushSum(&g, slow).Run(y0, g0);
  auto rf = AsyncPushSum(&g, fast).Run(y0, g0);
  ASSERT_TRUE(rs.ok() && rf.ok());
  ASSERT_TRUE(rs->converged && rf->converged);
  EXPECT_GT(rs->sim_time, rf->sim_time);
}

// Regression: past 2^53 * lookahead an event time plus the lookahead
// rounds back to the time itself, so the lookahead window came back empty
// and the run crashed. Such windows now hold one event.
TEST(AsyncGossipTest, ConvergesWhenTheLookaheadRoundsAway) {
  Graph g = MakePaGraph(20);
  const std::vector<double> y0 = RandomValues(20, 14);
  const std::vector<double> g0(20, 1.0);
  AsyncGossipOptions o = Opts();
  o.push_period = 1e16;
  o.max_time = 1e30;
  auto base = AsyncPushSum(&g, o).Run(y0, g0);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(base->converged);
  EXPECT_GT(base->sim_time, 1e16);
  o.num_threads = 4;
  auto r = AsyncPushSum(&g, o).Run(y0, g0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ratios, base->ratios);
  EXPECT_EQ(r->events, base->events);
  EXPECT_EQ(r->sim_time, base->sim_time);
}

TEST(AsyncGossipTest, FiringsComparableToSyncSteps) {
  // The asynchronous run should need the same order of firings per node
  // as the synchronous engine needs steps.
  Graph g = MakePaGraph(100, 2, 27);
  auto y0 = RandomValues(100, 12);
  std::vector<double> g0(100, 1.0);
  auto r = AsyncPushSum(&g, Opts(1e-6)).Run(y0, g0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  EXPECT_GT(r->max_node_firings, 10u);
  EXPECT_LT(r->max_node_firings, 2000u);
}

TEST(AsyncGossipTest, IsolatedNodesConvergeImmediately) {
  Graph g(4);
  std::vector<double> y0(4, 0.5), g0(4, 1.0);
  AsyncPushSum engine(&g, Opts());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_DOUBLE_EQ(r->sim_time, 0.0);
  for (double v : r->ratios) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(AsyncGossipTest, UniformStrategySupported) {
  Graph g = MakePaGraph(60, 2, 28);
  auto y0 = RandomValues(60, 13);
  std::vector<double> g0(60, 1.0);
  AsyncGossipOptions o = Opts(1e-6);
  o.strategy = PushStrategy::kUniform;
  auto r = AsyncPushSum(&g, o).Run(y0, g0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  double truth = Mean(y0);
  double mean_err = 0;
  for (double v : r->ratios) mean_err += std::fabs(v - truth);
  EXPECT_LT(mean_err / 60, 5e-3);
}

}  // namespace
}  // namespace dgt
