// Parameterized correctness sweeps for the aggregation variants: the
// gossiped GCLR must match the exact centralized formula at every
// observer/target for every combination of weight parameters, denominator
// mode, and push strategy — and the free-riding economics invariants of
// the file-sharing workload must hold.

#include <cmath>
#include <string>
#include <tuple>
#include <utility>

#include "reputation/aggregation.h"
#include "reputation/reference.h"
#include "scenario/canned_specs.h"
#include "scenario/scenario_runner.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;

using AggParam = std::tuple<double, double, DenominatorMode, PushStrategy>;

class AggregationSweep : public ::testing::TestWithParam<AggParam> {};

TEST_P(AggregationSweep, GclrVectorMatchesExactEverywhere) {
  auto [a, b, mode, strategy] = GetParam();
  const uint32_t n = 36;
  Graph g = MakePaGraph(n, 2, 90);
  TrustMatrix t(n);
  FillTrust(g, &t, 91);

  AggregationOptions opts;
  opts.gossip.xi = 1e-10;
  opts.gossip.strategy = strategy;
  opts.gossip.seed = 4;
  opts.weights.a = a;
  opts.weights.b = b;
  opts.denominator = mode;

  auto run = AggregateGclrVector(g, t, opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->stats.converged);

  for (NodeId i = 0; i < n; ++i) {
    auto w = WeightTable::Build(t, i, opts.weights).value();
    for (NodeId j = 0; j < n; ++j) {
      double exact = ExactGclr(t, g, w, j, mode);
      EXPECT_NEAR(run->estimates[i][j], exact, 0.02)
          << "observer " << i << " target " << j << " a=" << a << " b=" << b;
    }
  }
}

std::string AggName(const ::testing::TestParamInfo<AggParam>& info) {
  auto [a, b, mode, strategy] = info.param;
  std::string name = "A";
  name += std::to_string(static_cast<int>(a));
  name += "B";
  name += std::to_string(static_cast<int>(b * 10));
  name += mode == DenominatorMode::kOpinators ? "Opinators" : "AllNodes";
  name += strategy == PushStrategy::kDifferential ? "Diff" : "Unif";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    WeightGrid, AggregationSweep,
    ::testing::Combine(::testing::Values(1.0, 2.0, 8.0),
                       ::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(DenominatorMode::kOpinators,
                                         DenominatorMode::kAllNodes),
                       ::testing::Values(PushStrategy::kDifferential,
                                         PushStrategy::kUniform)),
    AggName);

// Single-target Algorithm 2 must agree with the vector variant's column.
class SingleVsVectorSweep : public ::testing::TestWithParam<NodeId> {};

TEST_P(SingleVsVectorSweep, SingleTargetMatchesVectorColumn) {
  const NodeId target = GetParam();
  const uint32_t n = 30;
  Graph g = MakePaGraph(n, 2, 92);
  TrustMatrix t(n);
  FillTrust(g, &t, 93);
  AggregationOptions opts;
  opts.gossip.xi = 1e-10;
  auto vec = AggregateGclrVector(g, t, opts);
  auto single = AggregateGclrSingle(g, t, target, opts);
  ASSERT_TRUE(vec.ok() && single.ok());
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_NEAR(single->estimates[i], vec->estimates[i][target], 0.02)
        << "observer " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, SingleVsVectorSweep,
                         ::testing::Values(0, 3, 11, 29));

// Free-riding economics invariants across population mixes.
class EconomicsSweep : public ::testing::TestWithParam<double> {};

TEST_P(EconomicsSweep, UploadsBalanceDownloadsAndFreeRidersNeverUpload) {
  const double fr_fraction = GetParam();
  const uint32_t n = 50;
  Graph g = MakePaGraph(n, 2, 94);
  Rng rng(95);
  PopulationMix mix;
  mix.free_rider_fraction = fr_fraction;
  mix.min_quality = 0.6;
  auto peers = MakePopulation(n, mix, rng);
  ScenarioSpec spec = FileSharingScenarioSpec(peers);
  spec.num_rounds = 30;
  spec.gossip_every = 10;
  spec.reputation.aggregation.gossip.xi = 1e-6;
  spec.seed = 96;
  auto runner = ScenarioRunner::Create(&g, std::move(spec));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->Run().ok());
  const ScenarioReport& rep = (*runner)->report();

  // Conservation: every download is somebody's upload.
  uint64_t downloads =
      rep.cooperative.served + rep.free_rider.served + rep.colluder.served;
  uint64_t uploads = rep.cooperative.uploads + rep.free_rider.uploads +
                     rep.colluder.uploads;
  EXPECT_EQ(downloads, uploads);

  // Free riders never upload.
  EXPECT_EQ(rep.free_rider.uploads, 0u);

  if (fr_fraction > 0.0) {
    ASSERT_GT(rep.free_rider.requests, 0u);
    // With the reputation system on, cooperative peers out-earn free
    // riders in download success — free riding stops being dominant.
    EXPECT_GT(rep.cooperative.SuccessRate(), rep.free_rider.SuccessRate());
  }
}

INSTANTIATE_TEST_SUITE_P(FreeRiderMixes, EconomicsSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5));

}  // namespace
}  // namespace dgt
