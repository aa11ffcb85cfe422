// Behaviour of the whitewashing simulation, the canned whitewashing
// workload run through the ScenarioRunner: the stranger-trust dial's zero
// setting starves whitewashers, fixed optimism is exploitable, and the
// adaptive policy clamps under attack.
//
// In the whitewashing study the free riders are the whitewashers and the
// cooperative class is the established honest peers.

#include <utility>
#include <vector>

#include "scenario/canned_specs.h"
#include "scenario/scenario_runner.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

ScenarioSpec Whitewashing(std::vector<PeerProfile> peers, NewcomerMode mode,
                          uint32_t rounds = 120) {
  ScenarioSpec spec = WhitewashingScenarioSpec(std::move(peers));
  spec.newcomer_mode = mode;
  spec.num_rounds = rounds;
  spec.seed = 7;
  return spec;
}

std::vector<PeerProfile> Population(uint32_t n, double free_riders,
                                    uint64_t seed = 6) {
  Rng rng(seed);
  PopulationMix mix;
  mix.free_rider_fraction = free_riders;
  mix.min_quality = 0.6;
  return MakePopulation(n, mix, rng);
}

TEST(WhitewashingSimTest, ZeroModeStarvesWhitewashersAndNewcomers) {
  Graph g = MakePaGraph(60, 2, 220);
  auto peers = Population(60, 0.25, 221);
  auto runner =
      ScenarioRunner::Create(&g, Whitewashing(peers, NewcomerMode::kZero));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->Run().ok());
  const auto& rep = (*runner)->report();
  // Whitewashing buys nothing: strangers get 0 trust, so success stays
  // very low (established honest trust carries the honest class).
  EXPECT_LT(rep.free_rider.SuccessRate(), 0.1);
  // Margin note: refused requests now build reciprocity trust at
  // refused_reciprocity_weight (0.25) instead of full strength — a
  // refusal is an encounter, not a transaction — so under kZero the
  // honest bootstrap is slower than it was when refusals counted as full
  // transactions, and the honest/whitewasher gap is ~0.28 rather than
  // the inflated ~0.4 the pre-fix accounting produced.
  EXPECT_GT(rep.cooperative.SuccessRate(), rep.free_rider.SuccessRate() + 0.2);
}

TEST(WhitewashingSimTest, OptimisticModeIsExploitable) {
  Graph g = MakePaGraph(60, 2, 222);
  auto peers = Population(60, 0.25, 223);
  auto zero =
      ScenarioRunner::Create(&g, Whitewashing(peers, NewcomerMode::kZero));
  auto opt = ScenarioRunner::Create(
      &g, Whitewashing(peers, NewcomerMode::kOptimistic));
  ASSERT_TRUE(zero.ok() && opt.ok());
  ASSERT_TRUE((*zero)->Run().ok());
  ASSERT_TRUE((*opt)->Run().ok());
  // Fixed optimism hands whitewashers clearly more service than the
  // conservative default.
  EXPECT_GT((*opt)->report().free_rider.SuccessRate(),
            (*zero)->report().free_rider.SuccessRate() + 0.05);
}

TEST(WhitewashingSimTest, AdaptiveModeClampsUnderAttack) {
  Graph g = MakePaGraph(60, 2, 224);
  auto peers = Population(60, 0.25, 225);
  auto opt = ScenarioRunner::Create(
      &g, Whitewashing(peers, NewcomerMode::kOptimistic));
  auto adaptive =
      ScenarioRunner::Create(&g, Whitewashing(peers, NewcomerMode::kAdaptive));
  ASSERT_TRUE(opt.ok() && adaptive.ok());
  ASSERT_TRUE((*opt)->Run().ok());
  ASSERT_TRUE((*adaptive)->Run().ok());
  // The adaptive dial detects the resets and withdraws the stranger
  // trust, so whitewashers end up below the static-optimistic level.
  EXPECT_LT((*adaptive)->report().free_rider.SuccessRate(),
            (*opt)->report().free_rider.SuccessRate());
  // And the dial actually moved.
  EXPECT_LT((*adaptive)->report().final_initial_trust,
            NewcomerPolicyOptions{}.optimistic_initial);
  EXPECT_GT((*adaptive)->report().final_whitewashing_rate, 0.0);
}

TEST(WhitewashingSimTest, ResetsHappenUnderPressure) {
  Graph g = MakePaGraph(50, 2, 226);
  auto peers = Population(50, 0.3, 227);
  auto runner =
      ScenarioRunner::Create(&g, Whitewashing(peers, NewcomerMode::kZero));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->Run().ok());
  EXPECT_GT((*runner)->report().identity_resets, 0u);
}

TEST(WhitewashingSimTest, HonestArrivalsTracked) {
  Graph g = MakePaGraph(50, 2, 228);
  ScenarioSpec spec =
      Whitewashing(Population(50, 0.1, 229), NewcomerMode::kAdaptive, 200);
  spec.honest_arrival_prob = 0.5;
  auto runner = ScenarioRunner::Create(&g, std::move(spec));
  ASSERT_TRUE(runner.ok());
  ASSERT_TRUE((*runner)->Run().ok());
  EXPECT_GT((*runner)->report().honest_arrivals, 0u);
  EXPECT_GT((*runner)->report().newcomer.requests, 0u);
}

TEST(WhitewashingSimTest, DeterministicPerSeed) {
  Graph g = MakePaGraph(40, 2, 230);
  ScenarioSpec spec =
      Whitewashing(Population(40, 0.2, 231), NewcomerMode::kAdaptive, 60);
  auto a = ScenarioRunner::Create(&g, spec);
  auto b = ScenarioRunner::Create(&g, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Run().ok());
  ASSERT_TRUE((*b)->Run().ok());
  EXPECT_EQ((*a)->report().free_rider.served,
            (*b)->report().free_rider.served);
  EXPECT_EQ((*a)->report().identity_resets, (*b)->report().identity_resets);
}

}  // namespace
}  // namespace dgt
