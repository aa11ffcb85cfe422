#include "graph/generators.h"

#include <cmath>
#include <numeric>

#include "graph/graph_stats.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(CompleteGraphTest, AllPairsConnected) {
  auto g = GenerateComplete(6);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 15u);
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(g->Degree(u), 5u);
    for (NodeId v = u + 1; v < 6; ++v) EXPECT_TRUE(g->HasEdge(u, v));
  }
}

TEST(CompleteGraphTest, TooSmallFails) {
  EXPECT_FALSE(GenerateComplete(1).ok());
}

TEST(RingTest, DegreesAndConnectivity) {
  auto g = GenerateRing(7);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 7u);
  for (NodeId u = 0; u < 7; ++u) EXPECT_EQ(g->Degree(u), 2u);
  EXPECT_TRUE(IsConnected(*g));
  EXPECT_TRUE(g->HasEdge(6, 0));
}

TEST(RingTest, TooSmallFails) {
  EXPECT_FALSE(GenerateRing(2).ok());
}

TEST(StarTest, HubAndLeaves) {
  auto g = GenerateStar(5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Degree(0), 4u);
  for (NodeId u = 1; u < 5; ++u) EXPECT_EQ(g->Degree(u), 1u);
  EXPECT_TRUE(IsConnected(*g));
}

TEST(ErdosRenyiTest, ZeroProbabilityIsEdgeless) {
  auto g = GenerateErdosRenyi(20, 0.0, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(ErdosRenyiTest, OneProbabilityIsComplete) {
  auto g = GenerateErdosRenyi(10, 1.0, 1);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 45u);
}

TEST(ErdosRenyiTest, EdgeCountNearExpectation) {
  auto g = GenerateErdosRenyi(100, 0.1, 7);
  ASSERT_TRUE(g.ok());
  double expected = 0.1 * 100 * 99 / 2.0;
  EXPECT_NEAR(static_cast<double>(g->num_edges()), expected,
              4 * std::sqrt(expected));
}

TEST(ErdosRenyiTest, DeterministicPerSeed) {
  auto a = GenerateErdosRenyi(50, 0.2, 9);
  auto b = GenerateErdosRenyi(50, 0.2, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Edges(), b->Edges());
}

TEST(ErdosRenyiTest, InvalidProbabilityFails) {
  EXPECT_FALSE(GenerateErdosRenyi(10, -0.1, 1).ok());
  EXPECT_FALSE(GenerateErdosRenyi(10, 1.1, 1).ok());
}

TEST(PaperExampleTest, MatchesPublishedDegreeSequence) {
  auto g = GeneratePaperExampleNetwork();
  ASSERT_TRUE(g.ok());
  const uint32_t expected_degrees[10] = {4, 4, 7, 3, 3, 2, 2, 2, 3, 2};
  ASSERT_EQ(g->num_nodes(), 10u);
  EXPECT_EQ(g->num_edges(), 16u);
  for (NodeId u = 0; u < 10; ++u) {
    EXPECT_EQ(g->Degree(u), expected_degrees[u]) << "node " << u + 1;
  }
}

TEST(PaperExampleTest, MatchesPublishedPushCounts) {
  // Table 1 row "k": node 3 (id 2) pushes 3 times, everyone else once.
  auto g = GeneratePaperExampleNetwork();
  ASSERT_TRUE(g.ok());
  const uint32_t expected_k[10] = {1, 1, 3, 1, 1, 1, 1, 1, 1, 1};
  for (NodeId u = 0; u < 10; ++u) {
    EXPECT_EQ(g->DifferentialPushCount(u), expected_k[u]) << "node " << u + 1;
  }
}

TEST(PaperExampleTest, IsConnected) {
  auto g = GeneratePaperExampleNetwork();
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(IsConnected(*g));
}

}  // namespace
}  // namespace dgt
