// Property sweeps over the gossip engines: for every combination of
// topology family, push strategy, k-rounding rule, and packet-loss level,
// the core invariants must hold — exact mass conservation, termination,
// convergence of every ratio to the true average, and sane message
// accounting. These are the library's load-bearing guarantees; each
// parameter point is a distinct ctest case. A last sweep runs networks of
// zero, one and two nodes through every engine and entry point.

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "gossip/churn_engine.h"
#include "gossip/potential.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "gossip/spreading.h"
#include "graph/generators.h"
#include "graph/pa_generator.h"
#include "net/async_gossip.h"
#include "reputation/aggregation.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::RandomValues;

enum class Topology { kPa, kComplete, kRing, kStar, kErdosRenyi };

std::string TopologyName(Topology t) {
  switch (t) {
    case Topology::kPa:
      return "Pa";
    case Topology::kComplete:
      return "Complete";
    case Topology::kRing:
      return "Ring";
    case Topology::kStar:
      return "Star";
    case Topology::kErdosRenyi:
      return "ErdosRenyi";
  }
  return "?";
}

Graph MakeTopology(Topology t, uint32_t n) {
  switch (t) {
    case Topology::kPa: {
      PaOptions o;
      o.num_nodes = n;
      o.edges_per_node = 2;
      o.seed = 77;
      return GeneratePreferentialAttachment(o).value();
    }
    case Topology::kComplete:
      return GenerateComplete(n).value();
    case Topology::kRing:
      return GenerateRing(n).value();
    case Topology::kStar:
      return GenerateStar(n).value();
    case Topology::kErdosRenyi: {
      // p chosen to keep G(n, p) connected whp.
      auto g = GenerateErdosRenyi(n, 0.15, 78).value();
      return g;
    }
  }
  return Graph(0);
}

using SweepParam = std::tuple<Topology, PushStrategy, KRounding, double>;

class GossipPropertySweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static constexpr uint32_t kN = 48;

  GossipOptions Options() const {
    auto [topo, strategy, rounding, loss] = GetParam();
    (void)topo;
    GossipOptions o;
    o.strategy = strategy;
    o.k_rounding = rounding;
    o.packet_loss_prob = loss;
    o.xi = 1e-8;
    o.seed = 5;
    o.max_steps = 500000;
    return o;
  }
};

TEST_P(GossipPropertySweep, MassConservedAndConvergesToAverage) {
  auto [topo, strategy, rounding, loss] = GetParam();
  (void)strategy;
  (void)rounding;
  (void)loss;
  Graph g = MakeTopology(topo, kN);
  auto y0 = RandomValues(kN, 9);
  std::vector<double> g0(kN, 1.0);
  ScalarPushSum engine(&g, Options());
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->converged) << "did not terminate within the step cap";

  // Invariant 1: exact mass conservation.
  double sum_y = std::accumulate(r->values.begin(), r->values.end(), 0.0);
  double sum_g = std::accumulate(r->weights.begin(), r->weights.end(), 0.0);
  EXPECT_NEAR(sum_y, std::accumulate(y0.begin(), y0.end(), 0.0), 1e-9);
  EXPECT_NEAR(sum_g, static_cast<double>(kN), 1e-9);

  // Invariant 2: every node's estimate near the true average. (The
  // protocol guarantees xi-stability, not exactness; tolerance reflects
  // the slowest-mixing topology in the sweep.)
  double truth = testing_util::Mean(y0);
  double mean_err = 0.0;
  for (double v : r->ratios) mean_err += std::fabs(v - truth);
  mean_err /= kN;
  EXPECT_LT(mean_err, 5e-3);

  // Invariant 3: message accounting is sane — at least one push per
  // active node-step overall, control >= the degree announcements.
  EXPECT_GE(r->gossip_messages, r->steps);
  EXPECT_GE(r->control_messages, g.DegreeSum());
  EXPECT_GT(r->mean_messages_per_active_node_step, 0.9);
}

TEST_P(GossipPropertySweep, DeterministicReplay) {
  auto [topo, s, k, l] = GetParam();
  (void)s;
  (void)k;
  (void)l;
  Graph g = MakeTopology(topo, kN);
  auto y0 = RandomValues(kN, 10);
  std::vector<double> g0(kN, 1.0);
  ScalarPushSum a(&g, Options()), b(&g, Options());
  auto ra = a.Run(y0, g0);
  auto rb = b.Run(y0, g0);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->ratios, rb->ratios);
  EXPECT_EQ(ra->steps, rb->steps);
  EXPECT_EQ(ra->gossip_messages, rb->gossip_messages);
  EXPECT_EQ(ra->control_messages, rb->control_messages);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  auto [topo, strategy, rounding, loss] = info.param;
  std::string name = TopologyName(topo);
  name += strategy == PushStrategy::kDifferential ? "Diff" : "Unif";
  name += rounding == KRounding::kFloor
              ? "Floor"
              : (rounding == KRounding::kCeil ? "Ceil" : "Round");
  name += loss == 0.0 ? "NoLoss" : "Loss20";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, GossipPropertySweep,
    ::testing::Combine(
        ::testing::Values(Topology::kPa, Topology::kComplete, Topology::kRing,
                          Topology::kStar, Topology::kErdosRenyi),
        ::testing::Values(PushStrategy::kUniform,
                          PushStrategy::kDifferential),
        ::testing::Values(KRounding::kFloor, KRounding::kRound,
                          KRounding::kCeil),
        ::testing::Values(0.0, 0.2)),
    SweepName);

// One-hot sum estimation must hold across topologies too (the Algorithm 2
// machinery); strategy fixed to differential, sweep topology x loss.
class SumEstimationSweep
    : public ::testing::TestWithParam<std::tuple<Topology, double>> {};

TEST_P(SumEstimationSweep, OneHotWeightRecoversTheSum) {
  auto [topo, loss] = GetParam();
  const uint32_t n = 48;
  Graph g = MakeTopology(topo, n);
  auto y0 = RandomValues(n, 11);
  std::vector<double> g0(n, 0.0);
  g0[n / 2] = 1.0;
  GossipOptions o;
  o.xi = 1e-9;
  o.seed = 6;
  o.packet_loss_prob = loss;
  o.max_steps = 500000;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  double total = std::accumulate(y0.begin(), y0.end(), 0.0);
  double mean_err = 0.0;
  for (double v : r->ratios) mean_err += std::fabs(v - total);
  EXPECT_LT(mean_err / n, 0.01 * total);
}

// Theorem 5.2's potential-function decay must hold — and hold
// *identically* — under the threaded tracker: the per-row merge order is
// fixed, so the psi trace at 8 threads is the same doubles as at 1.
class ThreadedPotentialSweep : public ::testing::TestWithParam<Topology> {};

TEST_P(ThreadedPotentialSweep, MonotoneDecayIdenticalAt1And8Threads) {
  Graph g = MakeTopology(GetParam(), 64);
  Rng r1(41), r8(41);
  auto serial = TrackPotential(g, PushStrategy::kDifferential, 30, r1,
                               /*num_threads=*/1);
  auto threaded = TrackPotential(g, PushStrategy::kDifferential, 30, r8,
                                 /*num_threads=*/8);
  ASSERT_TRUE(serial.ok() && threaded.ok());

  // Bit-for-bit identical trace and uniformity metric.
  EXPECT_EQ(threaded->psi, serial->psi);
  EXPECT_EQ(threaded->final_max_relative_deviation,
            serial->final_max_relative_deviation);

  // Monotone decay over 5-step windows down to the noise floor (individual
  // steps may fluctuate; the theorem bounds the expectation).
  ASSERT_EQ(serial->psi.size(), 31u);
  EXPECT_NEAR(serial->psi[0], 63.0, 1e-9);  // psi_0 = N - 1 (eq. 28)
  for (size_t m = 5; m < serial->psi.size(); m += 5) {
    EXPECT_LT(serial->psi[m], serial->psi[m - 5] + 1e-12)
        << "window ending at step " << m;
  }
  EXPECT_LT(serial->psi.back(), 0.05 * serial->psi[0]);
}

INSTANTIATE_TEST_SUITE_P(Topologies, ThreadedPotentialSweep,
                         ::testing::Values(Topology::kPa, Topology::kComplete,
                                           Topology::kErdosRenyi),
                         [](const ::testing::TestParamInfo<Topology>& info) {
                           return TopologyName(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    Topologies, SumEstimationSweep,
    ::testing::Combine(::testing::Values(Topology::kPa, Topology::kComplete,
                                         Topology::kRing, Topology::kStar),
                       ::testing::Values(0.0, 0.2)),
    [](const ::testing::TestParamInfo<std::tuple<Topology, double>>& info) {
      return TopologyName(std::get<0>(info.param)) +
             (std::get<1>(info.param) == 0.0 ? "NoLoss" : "Loss20");
    });

// Networks of zero, one and two nodes: edgeless N in {0, 1, 2}, and
// N = 2 with its one edge. Node i starts at y = kY[i], g = 1.
struct SmallNetwork {
  const char* name;
  uint32_t num_nodes;
  bool linked;
};

class SmallNetworkSweep : public ::testing::TestWithParam<SmallNetwork> {
 protected:
  static constexpr double kY[2] = {0.25, 0.75};
  static constexpr double kXi = 1e-6;

  uint32_t n() const { return GetParam().num_nodes; }
  bool linked() const { return GetParam().linked; }

  Graph MakeGraph() const {
    Graph g(n());
    if (linked()) {
      EXPECT_TRUE(g.AddEdge(0, 1).ok());
    }
    return g;
  }
  std::vector<double> Y0() const { return {kY, kY + n()}; }
  // An isolated node keeps its own ratio; a linked pair settles at its
  // mean.
  double ExpectedRatio(NodeId i) const {
    return linked() ? 0.5 : kY[i];
  }
  // One-hot rows: node i holds column i with y = kY[i], g = 1.
  std::vector<SparseVectorRow> OneHotRows() const {
    std::vector<SparseVectorRow> rows(n());
    for (NodeId i = 0; i < n(); ++i) {
      rows[i].cols = {i};
      rows[i].y = {kY[i]};
      rows[i].g = {1.0};
    }
    return rows;
  }
  // Columns that reach node i: every node's when linked, else its own.
  std::vector<uint32_t> ExpectedCols(NodeId i) const {
    if (linked()) return {0, 1};
    return {i};
  }
};

TEST_P(SmallNetworkSweep, ScalarEnginesConverge) {
  const Graph g = MakeGraph();
  const std::vector<double> y0 = Y0();
  const std::vector<double> g0(n(), 1.0);
  GossipOptions options;
  options.xi = kXi;

  auto scalar = ScalarPushSum(&g, options).Run(y0, g0);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_TRUE(scalar->converged);
  EXPECT_EQ(scalar->steps, linked() ? 6u : 0u);
  ASSERT_EQ(scalar->ratios.size(), n());

  // Churn off from the first step: the same steps as the scalar engine.
  ChurnOptions no_churn;
  no_churn.churn_steps = 0;
  auto churn = ChurnPushSum(g, options, no_churn).Run(y0, g0);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  EXPECT_TRUE(churn->converged);
  EXPECT_EQ(churn->steps, scalar->steps);
  EXPECT_EQ(churn->live_count, n());
  ASSERT_EQ(churn->ratios.size(), n());

  AsyncGossipOptions async_options;
  async_options.xi = kXi;
  auto async = AsyncPushSum(&g, async_options).Run(y0, g0);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_TRUE(async->converged);
  ASSERT_EQ(async->ratios.size(), n());

  for (NodeId i = 0; i < n(); ++i) {
    EXPECT_NEAR(scalar->ratios[i], ExpectedRatio(i), kXi) << "node " << i;
    EXPECT_NEAR(churn->ratios[i], ExpectedRatio(i), kXi) << "node " << i;
    EXPECT_NEAR(async->ratios[i], ExpectedRatio(i), kXi) << "node " << i;
  }
}

TEST_P(SmallNetworkSweep, SparseEnginesKeepEachColumnsRatio) {
  // Each column carries one node's weight, so its ratio is that node's
  // value wherever the column arrives.
  const Graph g = MakeGraph();
  GossipOptions options;
  options.xi = kXi;
  auto sync = SparseVectorPushSum(&g, options).Run(OneHotRows(), false);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  EXPECT_TRUE(sync->converged);
  ASSERT_EQ(sync->rows.size(), n());

  AsyncGossipOptions async_options;
  async_options.xi = kXi;
  auto async =
      AsyncSparsePushSum(&g, async_options).Run(OneHotRows(), false);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_TRUE(async->stats.converged);
  ASSERT_EQ(async->rows.size(), n());

  for (NodeId i = 0; i < n(); ++i) {
    const std::vector<uint32_t> cols = ExpectedCols(i);
    ASSERT_EQ(sync->rows[i].cols, cols) << "node " << i;
    ASSERT_EQ(async->rows[i].cols, cols) << "node " << i;
    for (size_t k = 0; k < cols.size(); ++k) {
      EXPECT_NEAR(sync->rows[i].estimates[k], kY[cols[k]], kXi);
      EXPECT_NEAR(async->rows[i].y[k] / async->rows[i].g[k], kY[cols[k]],
                  kXi);
    }
  }
}

TEST_P(SmallNetworkSweep, AggregationRefusesOnlyAnEmptyNetwork) {
  const Graph g = MakeGraph();
  TrustMatrix trust(n());
  if (n() == 2) {
    ASSERT_TRUE(trust.Set(0, 1, kY[0]).ok());
    ASSERT_TRUE(trust.Set(1, 0, kY[1]).ok());
  }
  AggregationOptions options;
  options.gossip.xi = kXi;
  AsyncAggregationOptions async_options;
  async_options.gossip.xi = kXi;
  Rng rng(1);

  const Status statuses[] = {
      AggregateGlobalSingle(g, trust, 0, options).status(),
      AggregateGclrSingle(g, trust, 0, options).status(),
      AggregateGlobalVector(g, trust, options).status(),
      AggregateGclrVector(g, trust, options).status(),
      AggregateGclrVectorAsync(g, trust, async_options).status(),
      TrackPotential(g, PushStrategy::kDifferential, 5, rng).status(),
  };
  for (const Status& s : statuses) {
    if (n() == 0) {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
}

TEST_P(SmallNetworkSweep, RumorReachesEveryConnectedNode) {
  const Graph g = MakeGraph();
  for (SpreadProtocol protocol :
       {SpreadProtocol::kPush, SpreadProtocol::kDifferentialPush,
        SpreadProtocol::kPull, SpreadProtocol::kPushPull}) {
    Rng rng(1);
    auto r = SpreadRumor(g, 0, protocol, 50, rng);
    if (n() == 0) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The edgeless pair never completes; otherwise the rumor needs one
    // round per hop.
    EXPECT_EQ(r->completed, n() == 1 || linked());
    EXPECT_EQ(r->informed, linked() ? 2u : 1u);
    if (r->completed) {
      EXPECT_EQ(r->rounds, linked() ? 1u : 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiny, SmallNetworkSweep,
    ::testing::Values(SmallNetwork{"Empty", 0, false},
                      SmallNetwork{"OneNode", 1, false},
                      SmallNetwork{"TwoIsolated", 2, false},
                      SmallNetwork{"TwoLinked", 2, true}),
    [](const ::testing::TestParamInfo<SmallNetwork>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dgt
