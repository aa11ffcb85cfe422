#include "trust/weights.h"

#include <cmath>

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(WeightParamsTest, Validation) {
  WeightParams p;
  EXPECT_TRUE(p.Validate().ok());  // defaults valid
  p.a = 0.5;
  EXPECT_FALSE(p.Validate().ok());
  p.a = 1.0;
  p.b = -0.1;
  EXPECT_FALSE(p.Validate().ok());
  // Regression: infinite a or b, or a finite pair whose largest weight
  // a^b (reached at t = 1) overflows, passed and made GCLR scores
  // non-finite.
  p.a = HUGE_VAL;
  p.b = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p.a = 4.0;
  p.b = HUGE_VAL;
  EXPECT_FALSE(p.Validate().ok());
  p.a = 1e300;
  p.b = 2.0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(WeightParamsTest, WeightFormula) {
  WeightParams p;
  p.a = 4.0;
  p.b = 1.0;
  // w = a^(b t): strangers/zero trust -> exactly 1, full trust -> a^b.
  EXPECT_DOUBLE_EQ(p.Weight(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Weight(1.0), 4.0);
  EXPECT_DOUBLE_EQ(p.Weight(0.5), 2.0);
}

TEST(WeightParamsTest, WeightIsMonotoneInTrust) {
  WeightParams p;
  p.a = 3.0;
  p.b = 2.0;
  double prev = 0.0;
  for (double t = 0.0; t <= 1.0; t += 0.1) {
    double w = p.Weight(t);
    EXPECT_GE(w, 1.0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(WeightParamsTest, BaseOneNeutralizesWeighting) {
  WeightParams p;
  p.a = 1.0;
  p.b = 5.0;
  for (double t : {0.0, 0.3, 1.0}) EXPECT_DOUBLE_EQ(p.Weight(t), 1.0);
}

TrustMatrix MakeTrust() {
  TrustMatrix t(5);
  EXPECT_TRUE(t.Set(0, 1, 1.0).ok());
  EXPECT_TRUE(t.Set(0, 2, 0.5).ok());
  EXPECT_TRUE(t.Set(0, 3, 0.0).ok());
  return t;
}

TEST(WeightTableTest, BuildFromTrustRow) {
  TrustMatrix t = MakeTrust();
  WeightParams p;
  p.a = 4.0;
  p.b = 1.0;
  auto w = WeightTable::Build(t, 0, p);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->owner(), 0u);
  EXPECT_DOUBLE_EQ(w->Weight(1), 4.0);
  EXPECT_DOUBLE_EQ(w->Weight(2), 2.0);
  EXPECT_DOUBLE_EQ(w->Weight(3), 1.0);  // opinion of 0 -> weight 1
  EXPECT_DOUBLE_EQ(w->Weight(4), 1.0);  // stranger -> weight 1
  EXPECT_EQ(w->SortedEntries().size(), 3u);
}

TEST(WeightTableTest, WeightLookupAtEachSearchEdge) {
  // Owner 4 rates nodes 2, 5 and 8; every other id weighs 1.
  TrustMatrix t(10);
  ASSERT_TRUE(t.Set(4, 8, 0.75).ok());
  ASSERT_TRUE(t.Set(4, 2, 0.5).ok());
  ASSERT_TRUE(t.Set(4, 5, 1.0).ok());
  WeightParams p;
  p.a = 4.0;
  p.b = 1.0;
  auto w = WeightTable::Build(t, 4, p).value();
  // Present ids, first, middle and last.
  EXPECT_DOUBLE_EQ(w.Weight(2), 2.0);
  EXPECT_DOUBLE_EQ(w.Weight(5), 4.0);
  EXPECT_DOUBLE_EQ(w.Weight(8), std::pow(4.0, 0.75));
  // Absent ids between two present ones.
  for (NodeId i : {3u, 4u, 6u, 7u}) EXPECT_DOUBLE_EQ(w.Weight(i), 1.0) << i;
  // Below the first entry and above the last.
  for (NodeId i : {0u, 1u, 9u, 10u, 1000u}) {
    EXPECT_DOUBLE_EQ(w.Weight(i), 1.0) << i;
  }
}

TEST(WeightTableTest, RejectsBadParamsAndOwner) {
  TrustMatrix t = MakeTrust();
  WeightParams bad;
  bad.a = 0.2;
  EXPECT_FALSE(WeightTable::Build(t, 0, bad).ok());
  WeightParams p;
  EXPECT_FALSE(WeightTable::Build(t, 7, p).ok());
}

TEST(WeightTableTest, TotalExcessWeight) {
  TrustMatrix t = MakeTrust();
  WeightParams p;
  p.a = 4.0;
  p.b = 1.0;
  auto w = WeightTable::Build(t, 0, p).value();
  // Total over all stored entries: 3 + 1 + 0 = 4.
  EXPECT_DOUBLE_EQ(w.TotalExcessWeight(), 4.0);
}

TEST(WeightTableTest, EmptyRowGivesAllOnes) {
  TrustMatrix t(3);
  WeightParams p;
  auto w = WeightTable::Build(t, 1, p);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(w->Weight(0), 1.0);
  EXPECT_DOUBLE_EQ(w->TotalExcessWeight(), 0.0);
}

// Property sweep: weights always >= 1 for any valid (a, b, t).
class WeightPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WeightPropertyTest, AlwaysAtLeastOne) {
  auto [a, b] = GetParam();
  WeightParams p;
  p.a = a;
  p.b = b;
  ASSERT_TRUE(p.Validate().ok());
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    EXPECT_GE(p.Weight(t), 1.0) << "a=" << a << " b=" << b << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, WeightPropertyTest,
    ::testing::Combine(::testing::Values(1.0, 1.5, 2.0, 4.0, 10.0),
                       ::testing::Values(0.0, 0.5, 1.0, 2.0)));

}  // namespace
}  // namespace dgt
