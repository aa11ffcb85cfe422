#include "common/stats.h"

#include "common/rng.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, NegativeValues) {
  RunningStats s;
  s.Add(-3.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 9.0);
  EXPECT_EQ(s.min(), -3.0);
}

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble(-5, 5);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats before = a;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), before.mean());
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), 1.5);
}

}  // namespace
}  // namespace dgt
