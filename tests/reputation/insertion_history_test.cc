// Regression tests for the insertion-history determinism bug class: any
// two TrustMatrix instances with identical *content* must produce
// bit-identical aggregation results, no matter how they were built
// (insertion order, churn through inserted-then-erased entries). Float
// addition is not associative, so a sum over a row is reproducible only
// if the row has one order. TrustMatrix keeps every row sorted by column,
// so both builds below must hold equal rows, order included, and every
// result computed from them (weights, GCLR, EigenTrust, PowerTrust, the
// collusion analysis) must match bit for bit.

#include <algorithm>
#include <tuple>
#include <vector>

#include "baselines/eigen_trust.h"
#include "baselines/power_trust.h"
#include "collusion/analysis.h"
#include "reputation/aggregation.h"
#include "reputation/reference.h"
#include "test_util.h"
#include "trust/weights.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

constexpr uint32_t kNodes = 32;

// Deterministic trust content: every graph edge direction gets an opinion
// whose value depends only on (i, j), so both construction paths below
// agree on content exactly.
std::vector<std::tuple<NodeId, NodeId, double>> Opinions(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, double>> ops;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    for (NodeId j : g.Neighbors(i)) {
      // Values with long mantissas so any reassociation of the sums
      // changes the result in the last ulp.
      ops.emplace_back(i, j, 0.1 + 0.8 * ((i * 131 + j * 137) % 97) / 97.0);
    }
  }
  return ops;
}

// Straightforward build: insert opinions first-to-last.
TrustMatrix BuildForward(const std::vector<std::tuple<NodeId, NodeId, double>>&
                             ops) {
  TrustMatrix t(kNodes);
  for (const auto& [i, j, v] : ops) EXPECT_TRUE(t.Set(i, j, v).ok());
  return t;
}

// Same content, adversarial history: insert last-to-first, and churn every
// row through a pile of temporary entries (inserted then erased).
TrustMatrix BuildChurned(const std::vector<std::tuple<NodeId, NodeId, double>>&
                             ops) {
  TrustMatrix t(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) {
    for (NodeId j = 0; j < kNodes; ++j) {
      if (i != j) {
        EXPECT_TRUE(t.Set(i, j, 0.5).ok());
      }
    }
  }
  for (NodeId i = 0; i < kNodes; ++i) {
    for (NodeId j = 0; j < kNodes; ++j) {
      if (i != j) t.Erase(i, j);
    }
  }
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    const auto& [i, j, v] = *it;
    EXPECT_TRUE(t.Set(i, j, v).ok());
  }
  return t;
}

struct Fixture {
  Graph graph = MakePaGraph(kNodes, 3, 77);
  std::vector<std::tuple<NodeId, NodeId, double>> ops = Opinions(graph);
  TrustMatrix forward = BuildForward(ops);
  TrustMatrix churned = BuildChurned(ops);
};

TEST(InsertionHistoryTest, HistoriesDivergeButContentMatches) {
  Fixture f;
  for (NodeId i = 0; i < kNodes; ++i) {
    ASSERT_EQ(f.forward.Row(i), f.churned.Row(i)) << "row " << i;
  }
}

TEST(InsertionHistoryTest, WeightTablesBitIdentical) {
  Fixture f;
  WeightParams p;  // defaults a = 4, b = 1
  for (NodeId i = 0; i < kNodes; ++i) {
    auto wa = WeightTable::Build(f.forward, i, p).value();
    auto wb = WeightTable::Build(f.churned, i, p).value();
    EXPECT_EQ(wa.TotalExcessWeight(), wb.TotalExcessWeight()) << "owner " << i;
    ASSERT_EQ(wa.SortedEntries(), wb.SortedEntries()) << "owner " << i;
  }
}

TEST(InsertionHistoryTest, ExactGclrBitIdentical) {
  Fixture f;
  WeightParams p;
  for (NodeId owner = 0; owner < kNodes; ++owner) {
    auto wa = WeightTable::Build(f.forward, owner, p).value();
    auto wb = WeightTable::Build(f.churned, owner, p).value();
    for (NodeId j = 0; j < kNodes; ++j) {
      EXPECT_EQ(
          ExactGclr(f.forward, f.graph, wa, j, DenominatorMode::kOpinators),
          ExactGclr(f.churned, f.graph, wb, j, DenominatorMode::kOpinators))
          << "owner " << owner << " target " << j;
    }
  }
}

TEST(InsertionHistoryTest, GclrAggregationBitIdentical) {
  Fixture f;
  AggregationOptions o;
  o.gossip.xi = 1e-9;
  o.gossip.seed = 3;
  const NodeId target = 5;
  auto ra = AggregateGclrSingle(f.graph, f.forward, target, o);
  auto rb = AggregateGclrSingle(f.graph, f.churned, target, o);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->estimates, rb->estimates);

  auto va = AggregateGclrVector(f.graph, f.forward, o);
  auto vb = AggregateGclrVector(f.graph, f.churned, o);
  ASSERT_TRUE(va.ok() && vb.ok());
  ASSERT_EQ(va->estimates, vb->estimates);
}

TEST(InsertionHistoryTest, EigenTrustBitIdentical) {
  Fixture f;
  EigenTrustOptions o;
  o.pretrusted = {0, 1};
  auto ra = ComputeEigenTrust(f.forward, o);
  auto rb = ComputeEigenTrust(f.churned, o);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->iterations, rb->iterations);
  ASSERT_EQ(ra->scores, rb->scores);
}

TEST(InsertionHistoryTest, PowerTrustBitIdentical) {
  Fixture f;
  PowerTrustOptions o;
  auto ra = ComputePowerTrust(f.forward, o);
  auto rb = ComputePowerTrust(f.churned, o);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->iterations, rb->iterations);
  ASSERT_EQ(ra->scores, rb->scores);
  EXPECT_EQ(ra->power_nodes, rb->power_nodes);
}

TEST(InsertionHistoryTest, MeasuredWeightedDeltaBitIdentical) {
  Fixture f;
  WeightParams p;
  // A second content set acting as the "colluded" matrix: flip every
  // opinion towards 1.
  auto colluded_ops = f.ops;
  for (auto& [i, j, v] : colluded_ops) v = 1.0 - 0.5 * v;
  TrustMatrix colluded_fwd = BuildForward(colluded_ops);
  TrustMatrix colluded_churn = BuildChurned(colluded_ops);
  for (NodeId owner : {NodeId{0}, NodeId{7}, NodeId{19}}) {
    auto wa = WeightTable::Build(f.forward, owner, p).value();
    auto wb = WeightTable::Build(f.churned, owner, p).value();
    for (NodeId j = 0; j < kNodes; ++j) {
      EXPECT_EQ(MeasuredWeightedDelta(f.forward, colluded_fwd, wa, j),
                MeasuredWeightedDelta(f.churned, colluded_churn, wb, j))
          << "owner " << owner << " target " << j;
    }
  }
}

}  // namespace
}  // namespace dgt
