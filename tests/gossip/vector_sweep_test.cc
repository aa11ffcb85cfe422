// Parameterized sweeps for the vector push-sum (the sparse engine):
// per-column convergence to the correct limits must survive strategy and
// packet-loss choices, and the count channel must stay consistent with the
// weight channel.

#include <cmath>
#include <string>
#include <tuple>

#include "dense_vector_policy.h"
#include "gossip/sparse_vector_engine.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::Densify;
using testing_util::MakePaGraph;
using testing_util::SparseFromDense;

using VecParam = std::tuple<PushStrategy, double>;

class VectorSweep : public ::testing::TestWithParam<VecParam> {
 protected:
  static constexpr uint32_t kN = 32;

  GossipOptions Options() const {
    auto [strategy, loss] = GetParam();
    GossipOptions o;
    o.strategy = strategy;
    o.packet_loss_prob = loss;
    o.xi = 1e-9;
    o.seed = 7;
    o.max_steps = 200000;
    return o;
  }
};

TEST_P(VectorSweep, ColumnsConvergeToColumnLimits) {
  Graph g = MakePaGraph(kN, 2, 120);
  std::vector<std::vector<double>> y0(kN, std::vector<double>(kN, 0.0));
  std::vector<std::vector<double>> g0(kN, std::vector<double>(kN, 0.0));
  Rng rng(8);
  std::vector<double> col_sum(kN, 0.0), col_weight(kN, 0.0);
  for (uint32_t i = 0; i < kN; ++i) {
    for (uint32_t j = 0; j < kN; ++j) {
      if (!rng.NextBernoulli(0.4)) continue;
      y0[i][j] = rng.NextDouble();
      g0[i][j] = 1.0;
      col_sum[j] += y0[i][j];
      col_weight[j] += 1.0;
    }
  }
  SparseVectorPushSum engine(&g, Options());
  auto r = engine.Run(SparseFromDense(y0, g0), false);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  auto est = Densify(*r);
  for (uint32_t j = 0; j < kN; ++j) {
    if (col_weight[j] == 0.0) continue;
    double truth = col_sum[j] / col_weight[j];
    for (uint32_t i = 0; i < kN; ++i) {
      EXPECT_NEAR(est[i][j], truth, 0.01)
          << "node " << i << " target " << j;
    }
  }
}

TEST_P(VectorSweep, CountChannelConsistentWithWeights) {
  Graph g = MakePaGraph(kN, 2, 121);
  std::vector<std::vector<double>> y0(kN, std::vector<double>(kN, 0.0));
  std::vector<std::vector<double>> g0(kN, std::vector<double>(kN, 0.0));
  std::vector<std::vector<double>> c0(kN, std::vector<double>(kN, 0.0));
  Rng rng(9);
  std::vector<double> opinators(kN, 0.0);
  for (uint32_t j = 0; j < kN; ++j) {
    g0[j][j] = 1.0;  // one-hot weight per column
    for (uint32_t i = 0; i < kN; ++i) {
      if (rng.NextBernoulli(0.3)) {
        c0[i][j] = 1.0;
        opinators[j] += 1.0;
      }
    }
  }
  SparseVectorPushSum engine(&g, Options());
  auto r = engine.Run(SparseFromDense(y0, g0, c0), true);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->converged);
  auto cnt = Densify(*r, /*count=*/true);
  for (uint32_t i = 0; i < kN; ++i) {
    for (uint32_t j = 0; j < kN; ++j) {
      EXPECT_NEAR(cnt[i][j], opinators[j], 0.5)
          << "node " << i << " target " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategyAndLoss, VectorSweep,
    ::testing::Combine(::testing::Values(PushStrategy::kUniform,
                                         PushStrategy::kDifferential),
                       ::testing::Values(0.0, 0.15)),
    [](const ::testing::TestParamInfo<VecParam>& info) {
      std::string name = std::get<0>(info.param) ==
                                 PushStrategy::kDifferential
                             ? "Diff"
                             : "Unif";
      name += std::get<1>(info.param) == 0.0 ? "NoLoss" : "Loss15";
      return name;
    });

}  // namespace
}  // namespace dgt
