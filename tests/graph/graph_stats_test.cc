#include "graph/graph_stats.h"

#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(MaxDegreeTest, Known) {
  auto g = GenerateStar(7).value();
  EXPECT_EQ(MaxDegree(g), 6u);
}

TEST(ConnectedComponentsTest, SingleComponent) {
  auto g = GenerateRing(5).value();
  EXPECT_EQ(ConnectedComponents(g), std::vector<uint32_t>(5, 0));
  EXPECT_TRUE(IsConnected(g));
}

TEST(ConnectedComponentsTest, MultipleComponents) {
  Graph g(6);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  // 4, 5 isolated. Components are numbered in discovery order.
  EXPECT_EQ(ConnectedComponents(g),
            (std::vector<uint32_t>{0, 0, 1, 1, 2, 3}));
  EXPECT_FALSE(IsConnected(g));
}

TEST(ConnectedComponentsTest, EmptyAndSingleton) {
  Graph empty(0);
  EXPECT_TRUE(ConnectedComponents(empty).empty());
  EXPECT_TRUE(IsConnected(empty));
  Graph one(1);
  EXPECT_EQ(ConnectedComponents(one), std::vector<uint32_t>{0});
  EXPECT_TRUE(IsConnected(one));
}

TEST(PowerLawTest, UniformDegreeGivesLargeAlpha) {
  // A ring (all degree 2 == d_min) has log-sum ln(2/1.5) per node;
  // the estimator returns a finite alpha > 1.
  auto g = GenerateRing(100).value();
  double alpha = EstimatePowerLawExponent(g, 2);
  EXPECT_GT(alpha, 1.0);
}

TEST(PowerLawTest, NoQualifyingNodesGivesZero) {
  Graph g(5);  // all degree 0
  EXPECT_DOUBLE_EQ(EstimatePowerLawExponent(g, 2), 0.0);
}

TEST(PowerLawTest, DminZeroTreatedAsOne) {
  auto g = GenerateStar(10).value();
  EXPECT_GT(EstimatePowerLawExponent(g, 0), 0.0);
}

}  // namespace
}  // namespace dgt
