#include "graph/graph.h"

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.DegreeSum(), 0u);
}

TEST(GraphTest, EdgelessGraph) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId u = 0; u < 5; ++u) {
    EXPECT_EQ(g.Degree(u), 0u);
    EXPECT_TRUE(g.Neighbors(u).empty());
  }
}

TEST(GraphTest, AddEdgeBasics) {
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));  // undirected
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_EQ(g.DegreeSum(), 4u);
}

TEST(GraphTest, SelfLoopRejected) {
  Graph g(3);
  Status s = g.AddEdge(1, 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, OutOfRangeRejected) {
  Graph g(3);
  EXPECT_EQ(g.AddEdge(0, 3).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(g.AddEdge(7, 0).code(), StatusCode::kOutOfRange);
}

TEST(GraphTest, DuplicateEdgeRejected) {
  Graph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.AddEdge(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  Graph g(2);
  EXPECT_FALSE(g.HasEdge(0, 5));
  EXPECT_FALSE(g.HasEdge(5, 0));
}

TEST(GraphTest, FromEdgesBuilds) {
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 4u);
  EXPECT_TRUE(g->HasEdge(3, 0));
}

TEST(GraphTest, FromEdgesPropagatesErrors) {
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 0}}).ok());
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 1}, {0, 1}}).ok());
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 5}}).ok());
}

TEST(GraphTest, EdgesReturnsSortedCanonicalPairs) {
  auto g = Graph::FromEdges(4, {{2, 1}, {0, 3}, {1, 0}});
  ASSERT_TRUE(g.ok());
  auto edges = g->Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(NodeId{0}, NodeId{1}));
  EXPECT_EQ(edges[1], std::make_pair(NodeId{0}, NodeId{3}));
  EXPECT_EQ(edges[2], std::make_pair(NodeId{1}, NodeId{2}));
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(GraphTest, DegreeSumIsTwiceEdges) {
  auto g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->DegreeSum(), 2 * g->num_edges());
}

TEST(GraphTest, DifferentialPushCountStarHub) {
  // Hub degree 5, avg neighbour degree 1 -> k = 5. Leaves: 1/5 < 1 -> 1.
  auto g = Graph::FromEdges(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->DifferentialPushCount(0), 5u);
  for (NodeId leaf = 1; leaf <= 5; ++leaf) {
    EXPECT_EQ(g->DifferentialPushCount(leaf), 1u);
  }
}

TEST(GraphTest, DifferentialPushCountRegularGraphIsOne) {
  // Ring: every node has degree 2 and neighbours of degree 2 -> k = 1.
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ASSERT_TRUE(g.ok());
  for (NodeId u = 0; u < 4; ++u) EXPECT_EQ(g->DifferentialPushCount(u), 1u);
}

TEST(GraphTest, DifferentialPushCountRoundsToNearest) {
  // Path 0-1-2 plus 1-3: node 1 has degree 3, neighbours have degree 1
  // each -> ratio 3 -> k=3. Node 0: ratio 1/3 -> k=1.
  auto g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {1, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->DifferentialPushCount(1), 3u);
  EXPECT_EQ(g->DifferentialPushCount(0), 1u);
}

TEST(GraphTest, DifferentialPushCountIsolatedIsOne) {
  Graph g(3);
  EXPECT_EQ(g.DifferentialPushCount(0), 1u);
}

}  // namespace
}  // namespace dgt
