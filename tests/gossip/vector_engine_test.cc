#include "gossip/sparse_vector_engine.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "dense_vector_policy.h"
#include "gossip/push_sum.h"
#include "gossip/scalar_engine.h"
#include "graph/graph.h"
#include "test_util.h"
#include "gtest/gtest.h"

// Per-target vector push-sum (eq. 7): limits, the count channel, mass
// conservation and message accounting. These run on the sparse engine,
// the library's only vector engine; where a case needs the raw y/g state
// it calls the executor directly.

namespace dgt {
namespace {

using testing_util::Densify;
using testing_util::MakePaGraph;
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

TEST(VectorEngineTest, MatchesScalarEngineLimitPerColumn) {
  // The vector engine must converge to the same per-column limits as a
  // scalar run (they share the aggregation semantics).
  const uint32_t n = 30;
  Graph g = MakePaGraph(n, 2, 11);
  auto y0 = Matrix(n, 0.0);
  auto g0 = Matrix(n, 0.0);
  Rng rng(6);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (rng.NextBernoulli(0.3)) {
        y0[i][j] = rng.NextDouble();
        g0[i][j] = 1.0;
      }
    }
  }
  SparseVectorPushSum vec(&g, Opts(1e-10));
  auto rv = vec.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(rv.ok());
  auto est = Densify(*rv);

  // Column 7 via the scalar engine.
  std::vector<double> yc(n), gc(n);
  for (uint32_t i = 0; i < n; ++i) {
    yc[i] = y0[i][7];
    gc[i] = g0[i][7];
  }
  ScalarPushSum scal(&g, Opts(1e-10));
  auto rs = scal.Run(yc, gc);
  ASSERT_TRUE(rs.ok());
  // Both approximate sum(yc)/sum(gc) wherever weight reached.
  double truth = std::accumulate(yc.begin(), yc.end(), 0.0) /
                 std::accumulate(gc.begin(), gc.end(), 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(est[i][7], truth, 5e-3);
    EXPECT_NEAR(rs->ratios[i], truth, 5e-3);
  }
}

TEST(VectorEngineTest, CountChannelTracksOpinators) {
  const uint32_t n = 30;
  Graph g = MakePaGraph(n, 2, 12);
  auto y0 = Matrix(n, 0.0);
  auto g0 = Matrix(n, 0.0);
  auto c0 = Matrix(n, 0.0);
  // One-hot weight at node j for each column j; ~35% opinators per column.
  std::vector<double> expected_count(n, 0.0);
  Rng rng(7);
  for (uint32_t j = 0; j < n; ++j) {
    g0[j][j] = 1.0;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.NextBernoulli(0.35)) {
        c0[i][j] = 1.0;
        expected_count[j] += 1.0;
      }
    }
  }
  SparseVectorPushSum engine(&g, Opts(1e-10));
  auto r = engine.Run(SparseFromDense(y0, g0, c0), true);
  ASSERT_TRUE(r.ok());
  auto cnt = Densify(*r, /*count=*/true);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      EXPECT_NEAR(cnt[i][j], expected_count[j], 0.5)
          << "node " << i << " target " << j;
    }
  }
}

TEST(VectorEngineTest, MassConservedPerColumn) {
  // Runs the executor directly: the front-end reports ratios only, and
  // conservation is a property of the raw y/g mass.
  const uint32_t n = 25;
  Graph g = MakePaGraph(n, 2, 13);
  auto y0 = Matrix(n, 0.0);
  auto g0 = Matrix(n, 1.0);
  Rng rng(8);
  std::vector<double> col_sum(n, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      y0[i][j] = rng.NextDouble();
      col_sum[j] += y0[i][j];
    }
  }
  GossipOptions o = Opts(1e-6);
  o.packet_loss_prob = 0.2;  // loss must not destroy mass either
  std::vector<SparseVectorRow> state = SparseFromDense(y0, g0);
  SparseVectorGossipPolicy policy(state, /*use_count=*/false);
  ThreadPool pool(1);
  auto r = RunPushSum(
      g, o, PushCounts(g.Adjacency(), o.strategy, o.k_rounding), policy,
      state, pool);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  std::vector<double> y_after(n, 0.0), g_after(n, 0.0);
  for (const SparseVectorRow& row : state) {
    for (size_t k = 0; k < row.cols.size(); ++k) {
      y_after[row.cols[k]] += row.y[k];
      g_after[row.cols[k]] += row.g[k];
    }
  }
  for (uint32_t j = 0; j < n; ++j) {
    EXPECT_NEAR(y_after[j], col_sum[j], 1e-9) << "column " << j;
    EXPECT_NEAR(g_after[j], static_cast<double>(n), 1e-9) << "column " << j;
    for (const SparseVectorRow& row : state) {
      auto it = std::lower_bound(row.cols.begin(), row.cols.end(), j);
      ASSERT_TRUE(it != row.cols.end() && *it == j);
      const size_t k = static_cast<size_t>(it - row.cols.begin());
      EXPECT_NEAR(row.y[k] / row.g[k], col_sum[j] / n, 0.05);
    }
  }
}

TEST(VectorEngineTest, StatsPopulated) {
  const uint32_t n = 40;
  Graph g = MakePaGraph(n, 2, 16);
  auto y0 = Matrix(n, 0.2);
  auto g0 = Matrix(n, 1.0);
  SparseVectorPushSum engine(&g, Opts(1e-6));
  auto r = engine.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->gossip_messages, 0u);
  EXPECT_GE(r->control_messages, g.DegreeSum());
  EXPECT_GT(r->mean_messages_per_active_node_step, 0.5);
}

}  // namespace
}  // namespace dgt
