// Invariants of the event-driven engine's vector state policy, fed sparse
// rows and read back as dense rows: mass conservation including in-flight
// shares, agreement with the test-only dense reference policy
// (bit-for-bit: both walk columns ascending with identical accumulation
// order), and tolerance-bounded convergence-value agreement between the
// asynchronous engine and the synchronous vector engine on the same
// trust-shaped initial state.

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense_vector_policy.h"
#include "gossip/sparse_vector_engine.h"
#include "net/async_gossip.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::DenseValues;
using testing_util::DenseVectorPolicy;
using testing_util::MakePaGraph;

// GCLR-shaped initial state: sparse opinions with a count channel and a
// one-hot diagonal gossip weight.
std::vector<SparseVectorRow> MakeGclrInit(uint32_t n, double density,
                                          uint64_t seed) {
  std::vector<SparseVectorRow> init(n);
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      double y = 0.0, g = 0.0, c = 0.0;
      if (i == j) g = 1.0;
      if (i != j && rng.NextBernoulli(density)) {
        y = rng.NextDouble();
        c = 1.0;
      }
      if (y == 0.0 && g == 0.0 && c == 0.0) continue;
      init[i].cols.push_back(j);
      init[i].y.push_back(y);
      init[i].g.push_back(g);
      init[i].c.push_back(c);
    }
  }
  return init;
}

std::vector<double> ColumnSums(const std::vector<SparseVectorRow>& rows,
                               uint32_t n) {
  std::vector<double> sums(n, 0.0);
  for (const SparseVectorRow& row : rows) {
    for (size_t k = 0; k < row.cols.size(); ++k) {
      sums[row.cols[k]] += row.y[k];
    }
  }
  return sums;
}

TEST(AsyncSparsePolicy, MassConservedPerColumnIncludingLossAndChurnOfFlight) {
  const uint32_t n = 32;
  Graph g = MakePaGraph(n, 2, 61);
  auto init = MakeGclrInit(n, 0.3, 62);
  std::vector<double> y_before = ColumnSums(init, n);
  std::vector<double> g_before(n, 0.0), c_before(n, 0.0);
  for (const SparseVectorRow& row : init) {
    for (size_t k = 0; k < row.cols.size(); ++k) {
      g_before[row.cols[k]] += row.g[k];
      c_before[row.cols[k]] += row.c[k];
    }
  }

  AsyncGossipOptions o;
  o.xi = 1e-4;
  o.seed = 9;
  o.packet_loss_prob = 0.15;  // lost shares must bounce, not vanish
  o.num_threads = 2;
  AsyncSparsePushSum engine(&g, o);
  auto r = engine.Run(init, /*use_count=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->stats.converged);

  // After the run every share has been drained back into node-resident
  // rows, so per-column sums over all nodes are conserved exactly (up to
  // float accumulation).
  std::vector<double> y_after(n, 0.0), g_after(n, 0.0), c_after(n, 0.0);
  for (const VectorGossipPolicy::Value& row : r->values) {
    for (uint32_t j = 0; j < n; ++j) {
      y_after[j] += row.y[j];
      g_after[j] += row.g[j];
      c_after[j] += row.c[j];
    }
  }
  for (uint32_t j = 0; j < n; ++j) {
    EXPECT_NEAR(y_after[j], y_before[j], 1e-9) << "column " << j;
    EXPECT_NEAR(g_after[j], g_before[j], 1e-9) << "column " << j;
    EXPECT_NEAR(c_after[j], c_before[j], 1e-9) << "column " << j;
  }
}

TEST(AsyncSparsePolicy, DenseAndSparsePoliciesBitForBitAgree) {
  // Both policies split, absorb, and snapshot column-by-column in
  // ascending order with the same accumulation order, so the library
  // run's rows must equal the dense run's exactly — the event-driven
  // analogue of the synchronous SparseDenseEquivalence sweep.
  const uint32_t n = 18;
  Graph g = MakePaGraph(n, 2, 63);
  auto sparse_init = MakeGclrInit(n, 0.25, 64);
  std::vector<std::vector<double>> y0(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> g0(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> c0(n, std::vector<double>(n, 0.0));
  for (uint32_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < sparse_init[i].cols.size(); ++k) {
      y0[i][sparse_init[i].cols[k]] = sparse_init[i].y[k];
      g0[i][sparse_init[i].cols[k]] = sparse_init[i].g[k];
      c0[i][sparse_init[i].cols[k]] = sparse_init[i].c[k];
    }
  }

  AsyncGossipOptions o;
  o.xi = 1e-4;
  o.seed = 21;
  o.num_threads = 4;
  AsyncEventEngine<DenseVectorPolicy> dense(&g, o);
  auto dr = dense.Run(DenseValues(y0, g0, c0));
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  AsyncSparsePushSum sparse(&g, o);
  auto sr = sparse.Run(sparse_init, /*use_count=*/true);
  ASSERT_TRUE(sr.ok()) << sr.status().ToString();

  EXPECT_EQ(sr->stats.sim_time, dr->stats.sim_time);
  EXPECT_EQ(sr->stats.gossip_messages, dr->stats.gossip_messages);
  EXPECT_EQ(sr->stats.control_messages, dr->stats.control_messages);
  EXPECT_EQ(sr->stats.events, dr->stats.events);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(sr->values[i].y, dr->values[i].y) << "node " << i;
    EXPECT_EQ(sr->values[i].g, dr->values[i].g) << "node " << i;
    EXPECT_EQ(sr->values[i].c, dr->values[i].c) << "node " << i;
  }
}

TEST(AsyncSparsePolicy, AgreesWithSynchronousEngineOnConvergedValues) {
  // Same trust-shaped state through the synchronous sparse engine and the
  // event-driven engine: different trajectories (rounds vs timers), same
  // fixed point — each column's estimate converges to its conserved
  // column-mass ratio, so values agree within a tolerance set by xi.
  const uint32_t n = 32;
  Graph g = MakePaGraph(n, 2, 65);
  auto init = MakeGclrInit(n, 0.3, 66);
  std::vector<double> column_mass = ColumnSums(init, n);

  GossipOptions sync_o;
  sync_o.xi = 1e-7;
  sync_o.seed = 31;
  sync_o.max_steps = 200000;
  SparseVectorPushSum sync_engine(&g, sync_o);
  auto sync = sync_engine.Run(init, /*use_count=*/true);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  ASSERT_TRUE(sync->converged);

  AsyncGossipOptions async_o;
  async_o.xi = 1e-7;
  async_o.seed = 31;
  async_o.num_threads = 2;
  AsyncSparsePushSum async_engine(&g, async_o);
  auto async = async_engine.Run(init, /*use_count=*/true);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  ASSERT_TRUE(async->stats.converged);

  // Columns with weight: ratio y/g approximates the column's conserved
  // mass (one-hot diagonal weight, so the denominator mass is 1).
  double worst_vs_sync = 0.0, worst_vs_truth = 0.0;
  uint32_t compared = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const VectorGossipPolicy::Value& row = async->values[i];
    const VectorGossipPolicy::Value& sync_row = sync->rows[i];
    for (uint32_t j = 0; j < n; ++j) {
      if (row.g[j] == 0.0) continue;
      double est = row.y[j] / row.g[j];
      worst_vs_truth =
          std::max(worst_vs_truth, std::fabs(est - column_mass[j]));
      if (sync_row.g[j] != 0.0) {
        worst_vs_sync = std::max(
            worst_vs_sync, std::fabs(est - sync_row.y[j] / sync_row.g[j]));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, n);  // the comparison actually covered estimates
  EXPECT_LT(worst_vs_truth, 5e-3);
  EXPECT_LT(worst_vs_sync, 5e-3);
}

}  // namespace
}  // namespace dgt
