#include "gossip/sparse_vector_engine.h"

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "dense_vector_policy.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::DenseValues;
using testing_util::Densify;
using testing_util::MakePaGraph;
using testing_util::RunDense;
using testing_util::SparseFromDense;

GossipOptions Opts(double xi = 1e-8, uint64_t seed = 3) {
  GossipOptions o;
  o.strategy = PushStrategy::kDifferential;
  o.xi = xi;
  o.seed = seed;
  return o;
}

std::vector<std::vector<double>> Matrix(uint32_t n, double fill) {
  return std::vector<std::vector<double>>(n, std::vector<double>(n, fill));
}

TEST(SparseVectorEngineTest, RejectsBadInput) {
  Graph g = MakePaGraph(10);
  SparseVectorPushSum engine(&g, Opts());
  // Wrong row count.
  EXPECT_FALSE(engine.Run(std::vector<SparseVectorRow>(9), false).ok());
  // Value arrays not parallel to cols.
  std::vector<SparseVectorRow> rows(10);
  rows[0].cols = {1};
  rows[0].y = {0.5};
  EXPECT_FALSE(engine.Run(rows, false).ok());
  rows[0].g = {1.0};
  EXPECT_TRUE(engine.Run(rows, false).ok());
  // Count channel demanded but not provided.
  EXPECT_FALSE(engine.Run(rows, true).ok());
  // Count channel provided but not demanded.
  rows[0].c = {1.0};
  EXPECT_FALSE(engine.Run(rows, false).ok());
  rows[0].c.clear();
  // Out-of-range column.
  rows[3].cols = {10};
  rows[3].y = {0.1};
  rows[3].g = {1.0};
  EXPECT_FALSE(engine.Run(rows, false).ok());
  // Unsorted / duplicate columns.
  rows[3].cols = {4, 2};
  rows[3].y = {0.1, 0.2};
  rows[3].g = {1.0, 1.0};
  EXPECT_FALSE(engine.Run(rows, false).ok());
  rows[3].cols = {2, 2};
  EXPECT_FALSE(engine.Run(rows, false).ok());
  rows[3].cols = {2, 4};
  EXPECT_TRUE(engine.Run(rows, false).ok());
  // Negative gossip weight (the event-driven engine already refused it).
  rows[3].g = {1.0, -1.0};
  EXPECT_FALSE(engine.Run(rows, false).ok());
  // Regression: a NaN gossip weight was accepted and the run went to the
  // step cap. Every y, g and c must be finite.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::vector<SparseVectorRow> v = rows;
    v[3].g = {1.0, bad};
    EXPECT_FALSE(engine.Run(v, false).ok()) << "g=" << bad;
    v[3].g = {1.0, 1.0};
    v[3].y = {bad, 0.2};
    EXPECT_FALSE(engine.Run(v, false).ok()) << "y=" << bad;
    v[3].y = {0.1, 0.2};
    for (SparseVectorRow& row : v) row.c.assign(row.cols.size(), 1.0);
    ASSERT_TRUE(engine.Run(v, true).ok());
    v[3].c = {bad, 1.0};
    EXPECT_FALSE(engine.Run(v, true).ok()) << "c=" << bad;
  }
  // xi must be finite and positive.
  for (double xi : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                    std::numeric_limits<double>::infinity()}) {
    GossipOptions bad = Opts();
    bad.xi = xi;
    SparseVectorPushSum bad_engine(&g, bad);
    EXPECT_FALSE(bad_engine.Run(std::vector<SparseVectorRow>(10), false).ok())
        << "xi=" << xi;
  }
  // Regression: a NaN or negative loss probability ran lossless, and one
  // above 1 bounced every push until the step cap.
  rows[3].g = {1.0, 1.0};
  ASSERT_TRUE(engine.Run(rows, false).ok());
  for (double loss : {std::numeric_limits<double>::quiet_NaN(), -0.5, 1.5}) {
    GossipOptions bad = Opts();
    bad.packet_loss_prob = loss;
    SparseVectorPushSum bad_engine(&g, bad);
    EXPECT_FALSE(bad_engine.Run(rows, false).ok()) << "loss=" << loss;
  }
  // Regression: with no streak required every node announced at its
  // first evidence, and the run reported converged.
  GossipOptions no_streak = Opts();
  no_streak.convergence_rounds = 0;
  EXPECT_FALSE(SparseVectorPushSum(&g, no_streak).Run(rows, false).ok());
}

// The load-bearing guarantee: for the same options and initial state the
// sparse engine reproduces the dense reference policy (run through the
// same executor) bit for bit — estimates, step count, message counts, and
// the Table 2 metric. Swept over network size, push strategy, packet
// loss, and the count channel.
using EquivalenceParam = std::tuple<uint32_t, PushStrategy, double, bool>;

class SparseDenseEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(SparseDenseEquivalence, BitForBitIdenticalToDenseEngine) {
  auto [n, strategy, loss, use_count] = GetParam();
  Graph g = MakePaGraph(n, 2, 21 + n);

  // GCLR-shaped state: sparse opinions (y, count) plus a one-hot weight
  // on the diagonal — the hardest case, exercising all three channels.
  auto y0 = Matrix(n, 0.0);
  auto g0 = Matrix(n, 0.0);
  auto c0 = Matrix(n, 0.0);
  Rng rng(91 + n);
  for (uint32_t i = 0; i < n; ++i) {
    g0[i][i] = 1.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.NextBernoulli(0.2)) {
        y0[i][j] = rng.NextDouble();
        c0[i][j] = 1.0;
      }
    }
  }

  GossipOptions o = Opts(1e-6, 7);
  o.strategy = strategy;
  o.packet_loss_prob = loss;

  if (!use_count) c0.clear();
  auto rd = RunDense(g, o, DenseValues(y0, g0, c0), use_count);
  SparseVectorPushSum sparse(&g, o);
  auto rs = sparse.Run(SparseFromDense(y0, g0, c0), use_count);
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();

  EXPECT_EQ(rd->stats.steps, rs->steps);
  EXPECT_EQ(rd->stats.converged, rs->converged);
  EXPECT_EQ(rd->stats.gossip_messages, rs->gossip_messages);
  EXPECT_EQ(rd->stats.control_messages, rs->control_messages);
  EXPECT_EQ(rd->stats.mean_messages_per_active_node_step,
            rs->mean_messages_per_active_node_step);
  EXPECT_EQ(rd->Estimates(), Densify(*rs));
  if (use_count) {
    EXPECT_EQ(rd->Estimates(/*count=*/true), Densify(*rs, /*count=*/true));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesStrategiesLossChannels, SparseDenseEquivalence,
    ::testing::Combine(::testing::Values(16u, 33u, 64u),
                       ::testing::Values(PushStrategy::kDifferential,
                                         PushStrategy::kUniform),
                       ::testing::Values(0.0, 0.2),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& info) {
      std::string name = "N" + std::to_string(std::get<0>(info.param));
      name += std::get<1>(info.param) == PushStrategy::kDifferential
                  ? "Diff"
                  : "Unif";
      name += std::get<2>(info.param) == 0.0 ? "NoLoss" : "Loss20";
      name += std::get<3>(info.param) ? "Count" : "NoCount";
      return name;
    });

// Runs the sparse engine and the dense oracle from the same start (c0
// empty: count channel off) and expects the same steps, messages and
// estimates, bit for bit. Returns the sparse run.
SparseVectorGossipResult ExpectMatchesDense(
    const Graph& g, const GossipOptions& o,
    const std::vector<std::vector<double>>& y0,
    const std::vector<std::vector<double>>& g0,
    const std::vector<std::vector<double>>& c0) {
  const bool use_count = !c0.empty();
  auto rd = RunDense(g, o, DenseValues(y0, g0, c0), use_count);
  SparseVectorPushSum sparse(&g, o);
  auto rs = sparse.Run(SparseFromDense(y0, g0, c0), use_count);
  EXPECT_TRUE(rd.ok()) << rd.status().ToString();
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  if (!rd.ok() || !rs.ok()) return {};
  EXPECT_EQ(rd->stats.steps, rs->steps);
  EXPECT_EQ(rd->stats.converged, rs->converged);
  EXPECT_EQ(rd->stats.gossip_messages, rs->gossip_messages);
  EXPECT_EQ(rd->stats.control_messages, rs->control_messages);
  EXPECT_EQ(rd->stats.mean_messages_per_active_node_step,
            rs->mean_messages_per_active_node_step);
  EXPECT_EQ(rd->Estimates(), Densify(*rs));
  if (use_count) {
    EXPECT_EQ(rd->Estimates(/*count=*/true), Densify(*rs, /*count=*/true));
  }
  return *std::move(rs);
}

// Once every row in a receiver's inbox holds all N columns, the merge
// walks columns by index instead of by sorted cursor. On complete graphs
// a GCLR-shaped start fills in within a few steps, so most merges take
// that walk; N = 2 is the smallest network.
TEST(SparseVectorEngineTest, FullRowMergeMatchesDenseOnCompleteGraphs) {
  for (uint32_t n : {2u, 5u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Graph g = GenerateComplete(n).value();
    auto y0 = Matrix(n, 0.0);
    auto g0 = Matrix(n, 0.0);
    auto c0 = Matrix(n, 0.0);
    Rng rng(17 + n);
    for (uint32_t i = 0; i < n; ++i) {
      g0[i][i] = 1.0;
      for (uint32_t j = 0; j < n; ++j) {
        if (i != j && rng.NextBernoulli(0.5)) {
          y0[i][j] = rng.NextDouble();
          c0[i][j] = 1.0;
        }
      }
    }
    for (double loss : {0.0, 0.2}) {
      SCOPED_TRACE("loss=" + std::to_string(loss));
      for (bool use_count : {false, true}) {
        SCOPED_TRACE("count=" + std::to_string(use_count));
        const auto counts = use_count ? c0 : Matrix(0, 0);
        GossipOptions o = Opts(1e-6, 7);
        o.packet_loss_prob = loss;
        SparseVectorGossipResult r = ExpectMatchesDense(g, o, y0, g0, counts);
        EXPECT_TRUE(r.converged);
        // Every final row carries weight in all N columns: the rows had
        // filled in, so the last steps merged full inboxes.
        ASSERT_EQ(r.rows.size(), n);
        for (const auto& row : r.rows) EXPECT_EQ(row.cols.size(), n);
      }
    }
  }
}

// A full-row start whose column d holds only y = denorm_min (g = c = 0).
// Every first-step share is at most half a row, so the column's scaled
// sum underflows to exact zero and the merge drops it; from the second
// step on no row is full and the merge goes back to the sorted walk.
TEST(SparseVectorEngineTest, UnderflowedColumnLeavesTheFullRowWalk) {
  const uint32_t n = 5, d = 2;
  Graph g = GenerateComplete(n).value();
  auto y0 = Matrix(n, 0.0);
  auto g0 = Matrix(n, 1.0);
  auto c0 = Matrix(n, 1.0);
  Rng rng(29);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) y0[i][j] = rng.NextDouble();
    y0[i][d] = std::numeric_limits<double>::denorm_min();
    g0[i][d] = 0.0;
    c0[i][d] = 0.0;
  }
  for (bool use_count : {false, true}) {
    SCOPED_TRACE("count=" + std::to_string(use_count));
    const auto counts = use_count ? c0 : Matrix(0, 0);
    GossipOptions o = Opts(1e-6, 7);
    EXPECT_TRUE(ExpectMatchesDense(g, o, y0, g0, counts).converged);
    // After the first step the column is exactly zero in every row.
    o.max_steps = 1;
    auto rd = RunDense(g, o, DenseValues(y0, g0, counts), use_count);
    ASSERT_TRUE(rd.ok());
    for (const auto& v : rd->state) EXPECT_EQ(v.y[d], 0.0);
  }
}

TEST(SparseVectorEngineTest, AllColumnsConvergeToColumnAverages) {
  const uint32_t n = 40;
  Graph g = MakePaGraph(n);
  auto y0 = Matrix(n, 0.0);
  auto g0 = Matrix(n, 1.0);
  Rng rng(5);
  std::vector<double> truth(n, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      y0[i][j] = rng.NextDouble();
      truth[j] += y0[i][j];
    }
  }
  for (auto& t : truth) t /= n;

  SparseVectorPushSum engine(&g, Opts(1e-9));
  auto r = engine.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  auto est = Densify(*r);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      EXPECT_NEAR(est[i][j], truth[j], 5e-3)
          << "node " << i << " target " << j;
    }
  }
}

TEST(SparseVectorEngineTest, SentinelForUnreachedWeight) {
  // Disconnected pair: nodes 2 and 3 form their own component with no
  // weight for column 0 -> absent from their result rows, sentinel when
  // densified (count channel included — the count sentinel regression).
  auto g = Graph::FromEdges(4, {{0, 1}, {2, 3}});
  ASSERT_TRUE(g.ok());
  auto y0 = Matrix(4, 0.0);
  auto g0 = Matrix(4, 0.0);
  auto c0 = Matrix(4, 0.0);
  g0[0][0] = 1.0;
  y0[0][0] = 0.8;
  c0[0][0] = 1.0;
  GossipOptions o = Opts(1e-9);
  SparseVectorPushSum engine(&*g, o);
  auto r = engine.Run(SparseFromDense(y0, g0, c0), true);
  ASSERT_TRUE(r.ok());
  auto est = Densify(*r);
  auto cnt = Densify(*r, /*count=*/true);
  EXPECT_EQ(est[2][0], kRatioSentinel);
  EXPECT_EQ(est[3][0], kRatioSentinel);
  EXPECT_EQ(cnt[2][0], kRatioSentinel);
  EXPECT_EQ(cnt[3][0], kRatioSentinel);
  EXPECT_NEAR(est[0][0], 0.8, 1e-6);
  EXPECT_NEAR(est[1][0], 0.8, 1e-6);
}

TEST(SparseVectorEngineTest, DeterministicAcrossRuns) {
  const uint32_t n = 20;
  Graph g = MakePaGraph(n, 2, 14);
  auto y0 = Matrix(n, 0.5);
  auto g0 = Matrix(n, 1.0);
  SparseVectorPushSum a(&g, Opts()), b(&g, Opts());
  auto ra = a.Run(SparseFromDense(y0, g0), false);
  auto rb = b.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->steps, rb->steps);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(ra->rows[i].cols, rb->rows[i].cols);
    EXPECT_EQ(ra->rows[i].estimates, rb->rows[i].estimates);
  }
}

TEST(SparseVectorEngineTest, MaxStepsCap) {
  const uint32_t n = 50;
  Graph g = MakePaGraph(n, 2, 15);
  auto y0 = Matrix(n, 0.1);
  auto g0 = Matrix(n, 1.0);
  GossipOptions o = Opts(1e-15);
  o.max_steps = 3;
  SparseVectorPushSum engine(&g, o);
  auto r = engine.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->steps, 3u);
  EXPECT_FALSE(r->converged);
}

TEST(SparseVectorEngineTest, UniformPushChargesNoDegreeAnnouncements) {
  const uint32_t n = 60;
  Graph g = MakePaGraph(n, 2, 17);
  auto y0 = Matrix(n, 0.3);
  auto g0 = Matrix(n, 1.0);
  GossipOptions o = Opts(1e-6);
  o.strategy = PushStrategy::kUniform;
  SparseVectorPushSum engine(&g, o);
  auto r = engine.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  // Every node announces convergence once (degree messages); there is no
  // degree-announcement round because plain push never uses degrees.
  EXPECT_EQ(r->control_messages, g.DegreeSum());

  // Differential push still pays the degree-announcement round.
  SparseVectorPushSum diff(&g, Opts(1e-6));
  auto dr = diff.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(dr.ok());
  ASSERT_TRUE(dr->converged);
  EXPECT_EQ(dr->control_messages, 2 * g.DegreeSum());
}

TEST(SparseVectorEngineTest, EarlyStateStaysProportionalToNonzeros) {
  // One opinion per node: after s steps a row can only contain columns
  // from its s-hop senders, so a capped run keeps the live state far
  // smaller than N x N. This is the memory property the dense engine
  // lacks by construction.
  const uint32_t n = 64;
  Graph g = MakePaGraph(n, 2, 18);
  std::vector<SparseVectorRow> init(n);
  for (uint32_t i = 0; i < n; ++i) {
    init[i].cols = {(i + 1) % n};
    init[i].y = {0.5};
    init[i].g = {1.0};
  }
  GossipOptions o = Opts(1e-12);
  o.max_steps = 2;
  SparseVectorPushSum engine(&g, o);
  auto r = engine.Run(std::move(init), false);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->peak_state_nonzeros, 0u);
  EXPECT_LT(r->peak_state_nonzeros, static_cast<uint64_t>(n) * n / 4);
}

}  // namespace
}  // namespace dgt
