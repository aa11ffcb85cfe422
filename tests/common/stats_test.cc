#include "common/stats.h"

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.mean(), 5.0);
}

TEST(RunningStatsTest, KnownMean) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(RunningStatsTest, NegativeValues) {
  RunningStats s;
  s.Add(-3.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace dgt
