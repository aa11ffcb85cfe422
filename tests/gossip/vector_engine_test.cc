#include "gossip/sparse_vector_engine.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
// conservation and message accounting. These run on SparseVectorPushSum,
// the library's only vector engine; where a case needs the raw y/g state
// it calls the executor directly.

namespace dgt {
namespace {

using testing_util::DenseValues;
using testing_util::DenseVectorPolicy;
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
  const std::vector<SparseVectorRow> init = SparseFromDense(y0, g0);
  VectorGossipPolicy policy(init, /*use_count=*/false);
  std::vector<VectorGossipPolicy::Value> state =
      VectorGossipPolicy::FromSparse(init, /*use_count=*/false);
  ThreadPool pool(1);
  auto r = RunPushSum(
      g, o, PushCounts(g.Adjacency(), o.strategy, o.k_rounding), policy,
      state, pool);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  std::vector<double> y_after(n, 0.0), g_after(n, 0.0);
  for (const VectorGossipPolicy::Value& row : state) {
    ASSERT_EQ(row.y.size(), n);
    for (uint32_t j = 0; j < n; ++j) {
      y_after[j] += row.y[j];
      g_after[j] += row.g[j];
    }
  }
  for (uint32_t j = 0; j < n; ++j) {
    EXPECT_NEAR(y_after[j], col_sum[j], 1e-9) << "column " << j;
    EXPECT_NEAR(g_after[j], static_cast<double>(n), 1e-9) << "column " << j;
    for (const VectorGossipPolicy::Value& row : state) {
      ASSERT_GT(row.g[j], 0.0) << "column " << j;
      EXPECT_NEAR(row.y[j] / row.g[j], col_sum[j] / n, 0.05);
    }
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double x : v) out.push_back(Bits(x));
  return out;
}

// One hand-built step of three nodes, merged receiver by receiver through
// VectorGossipPolicy with one limit for every receiver.
struct LimitedStep {
  std::vector<VectorGossipPolicy::Value> out;
  std::vector<MergeOutcome> m;
  uint64_t peak_nnz = 0;
};

LimitedStep RunLimitedStep(const std::vector<SparseVectorRow>& init,
                           bool use_count, const StepPlan& plan,
                           double limit) {
  VectorGossipPolicy policy(init, use_count);
  std::vector<VectorGossipPolicy::Value> state =
      VectorGossipPolicy::FromSparse(init, use_count);
  const std::vector<uint8_t> stopped(init.size(), 0);
  LimitedStep step;
  step.out.resize(init.size());
  VectorGossipPolicy::Scratch scratch;
  policy.BeginStep(plan, stopped);
  for (NodeId i = 0; i < init.size(); ++i) {
    step.m.push_back(
        policy.Merge(i, plan, state, step.out[i], scratch, limit));
  }
  policy.EndStep(plan, stopped);
  step.peak_nnz = policy.peak_state_nonzeros();
  return step;
}

TEST(VectorEngineTest, MergeLimitKeepsEveryDecisionAndValue) {
  // Every node keeps one share and pushes one (k = 1, so each share is
  // exactly half a row): receiver 0 merges rows 0 and 1, receiver 1 rows
  // 1 and 2, receiver 2 rows 0 and 2.
  StepPlan plan;
  plan.Reset(3);
  plan.inbox[0] = {{0, 1}, {1, 1}};
  plan.inbox[1] = {{1, 1}, {2, 1}};
  plan.inbox[2] = {{0, 1}, {2, 1}};
  plan.k_used = {1, 1, 1};
  plan.senders = {1, 1, 1};
  plan.pushes = 3;
  // Every ratio and term is an exact binary fraction, so each partial sum
  // of the change is exact: receiver 0's terms, ratio then count term per
  // column, are 1/8, 1/2, 1/4, 1/2, 1/8, 1/2.
  const std::vector<std::vector<double>> y = {
      {0.5, 0.25, 0.75}, {0.25, 0.75, 0.5}, {1.0, 0.5, 0.125}};
  const std::vector<std::vector<double>> c = {
      {1.0, 0.0, 2.0}, {0.0, 1.0, 1.0}, {2.0, 2.0, 0.0}};
  // In the NaN column rows 0 and 1 hold y = 1 over a denormal g, so
  // receiver 0's merged and previous ratios are both +inf and its term is
  // inf - inf = NaN.
  const double denormal_g = std::ldexp(1.0, -1070);
  const double inf = std::numeric_limits<double>::infinity();
  for (const int nan_column : {-1, 0, 2}) {
    for (const bool use_count : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "NaN column " << nan_column
                                        << ", use_count " << use_count);
      auto ym = y;
      auto gm = Matrix(3, 1.0);
      if (nan_column >= 0) {
        for (const int r : {0, 1}) {
          ym[r][nan_column] = 1.0;
          gm[r][nan_column] = denormal_g;
        }
      }
      const auto cm = use_count ? c : std::vector<std::vector<double>>();
      const std::vector<SparseVectorRow> init = SparseFromDense(ym, gm, cm);

      // The oracle sums every column; the partial sums follow its order.
      DenseVectorPolicy oracle(use_count);
      const auto dense = DenseValues(ym, gm, cm);
      DenseVectorPolicy::Scratch oracle_scratch;
      std::vector<double> full, limits = {-1.0, inf};
      for (NodeId i = 0; i < 3; ++i) {
        DenseVectorPolicy::Value merged;
        full.push_back(
            oracle.Merge(i, plan, dense, merged, oracle_scratch, -1.0).change);
        limits.push_back(full.back());
        double partial = 0.0;
        for (size_t j = 0; j < 3; ++j) {
          partial += std::fabs(DenseVectorPolicy::Ratio(merged.y[j],
                                                        merged.g[j]) -
                               DenseVectorPolicy::Ratio(dense[i].y[j],
                                                        dense[i].g[j]));
          limits.push_back(partial);
          if (!use_count) continue;
          partial += std::fabs(DenseVectorPolicy::Ratio(merged.c[j],
                                                        merged.g[j]) -
                               DenseVectorPolicy::Ratio(dense[i].c[j],
                                                        dense[i].g[j]));
          limits.push_back(partial);
        }
        EXPECT_EQ(Bits(partial), Bits(full.back())) << "receiver " << i;
      }
      if (nan_column < 0) {
        EXPECT_EQ(full[0], use_count ? 2.0 : 0.5);
      } else {
        EXPECT_TRUE(std::isnan(full[0]));
      }

      const LimitedStep all = RunLimitedStep(init, use_count, plan, inf);
      for (NodeId i = 0; i < 3; ++i) {
        EXPECT_EQ(Bits(all.m[i].change), Bits(full[i])) << "receiver " << i;
      }
      for (const double limit : limits) {
        SCOPED_TRACE(::testing::Message() << "limit " << limit);
        const LimitedStep step = RunLimitedStep(init, use_count, plan, limit);
        EXPECT_EQ(step.peak_nnz, all.peak_nnz);
        for (NodeId i = 0; i < 3; ++i) {
          EXPECT_EQ(step.m[i].change <= limit, full[i] <= limit)
              << "receiver " << i << ", change " << step.m[i].change;
          EXPECT_EQ(step.m[i].has_weight, all.m[i].has_weight);
          EXPECT_EQ(Bits(step.out[i].y), Bits(all.out[i].y));
          EXPECT_EQ(Bits(step.out[i].g), Bits(all.out[i].g));
          EXPECT_EQ(Bits(step.out[i].c), Bits(all.out[i].c));
        }
      }
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
