#include "p2p/query_flood.h"

#include "graph/generators.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

Graph Path(uint32_t n) {
  Graph g(n);
  for (NodeId u = 0; u + 1 < n; ++u) EXPECT_TRUE(g.AddEdge(u, u + 1).ok());
  return g;
}

TEST(QueryFloodTest, RejectsBadInput) {
  Graph g = MakePaGraph(10);
  EXPECT_EQ(FloodQueryAllHolders(g, 10, 3).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(FloodQueryAllHolders(g, 0, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryFloodTest, TtlLimitsReachOnPath) {
  Graph g = Path(10);
  auto r = FloodQueryAllHolders(g, 0, 3);
  ASSERT_TRUE(r.ok());
  // Nodes 1, 2, 3 are within 3 hops of node 0.
  EXPECT_EQ(r->providers, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(r->hops, (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(r->nodes_reached, 4u);
}

TEST(QueryFloodTest, ResponsesRouteBackAlongThePath) {
  Graph g = Path(6);
  auto r = FloodQueryAllHolders(g, 0, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->providers, (std::vector<NodeId>{1, 2, 3, 4, 5}));
  // Responses: 1 + 2 + 3 + 4 + 5 hops back.
  EXPECT_EQ(r->response_messages, 15u);
}

TEST(QueryFloodTest, NearestProvidersFirst) {
  Graph g = MakePaGraph(100, 2, 240);
  auto r = FloodQueryAllHolders(g, 5, 4);
  ASSERT_TRUE(r.ok());
  for (size_t i = 1; i < r->hops.size(); ++i) {
    EXPECT_LE(r->hops[i - 1], r->hops[i]);
  }
}

TEST(QueryFloodTest, MessageCostCountsEveryForward) {
  // Complete graph K4, ttl 1: origin forwards to 3 neighbours; no further
  // hops because ttl exhausted... but BFS frontier at depth 1 does not
  // forward (depth >= ttl). Query messages = 3.
  auto g = GenerateComplete(4).value();
  auto r = FloodQueryAllHolders(g, 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->query_messages, 3u);
  EXPECT_EQ(r->providers.size(), 3u);
  // With ttl 2 every depth-1 node forwards to its 3 neighbours too:
  // 3 + 3*3 = 12 transmissions (duplicates cost but don't propagate).
  auto r2 = FloodQueryAllHolders(g, 0, 2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->query_messages, 12u);
  EXPECT_EQ(r2->providers.size(), 3u);  // same providers, more cost
}

TEST(QueryFloodTest, FloodCoversWholeGraphWithLargeTtl) {
  Graph g = MakePaGraph(200, 2, 241);
  auto r = FloodQueryAllHolders(g, 0, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->nodes_reached, 200u);
  EXPECT_EQ(r->providers.size(), 199u);
}

TEST(QueryFloodTest, OriginNeverAProvider) {
  Graph g = MakePaGraph(50, 2, 242);
  auto r = FloodQueryAllHolders(g, 7, 5);
  ASSERT_TRUE(r.ok());
  for (NodeId p : r->providers) EXPECT_NE(p, 7u);
}

TEST(QueryFloodTest, DisconnectedRegionUnreachable) {
  auto g = Graph::FromEdges(5, {{0, 1}, {2, 3}});
  ASSERT_TRUE(g.ok());
  auto r = FloodQueryAllHolders(*g, 0, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->providers, (std::vector<NodeId>{1}));
  EXPECT_EQ(r->nodes_reached, 2u);
}

}  // namespace
}  // namespace dgt
