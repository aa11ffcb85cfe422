#include "trust/trust_matrix.h"

#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(TrustMatrixTest, StartsEmpty) {
  TrustMatrix t(5);
  EXPECT_EQ(t.num_nodes(), 5u);
  EXPECT_EQ(t.TotalOpinions(), 0u);
  EXPECT_DOUBLE_EQ(t.Get(0, 1), 0.0);
  EXPECT_FALSE(t.HasOpinion(0, 1));
}

TEST(TrustMatrixTest, SetAndGet) {
  TrustMatrix t(4);
  ASSERT_TRUE(t.Set(0, 1, 0.75).ok());
  EXPECT_DOUBLE_EQ(t.Get(0, 1), 0.75);
  EXPECT_TRUE(t.HasOpinion(0, 1));
  // Directed: the reverse entry stays absent.
  EXPECT_FALSE(t.HasOpinion(1, 0));
  EXPECT_DOUBLE_EQ(t.Get(1, 0), 0.0);
}

TEST(TrustMatrixTest, OverwriteUpdatesValue) {
  TrustMatrix t(3);
  ASSERT_TRUE(t.Set(0, 1, 0.2).ok());
  ASSERT_TRUE(t.Set(0, 1, 0.9).ok());
  EXPECT_DOUBLE_EQ(t.Get(0, 1), 0.9);
  EXPECT_EQ(t.TotalOpinions(), 1u);
}

TEST(TrustMatrixTest, BoundsValidation) {
  TrustMatrix t(3);
  EXPECT_EQ(t.Set(0, 1, -0.1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Set(0, 1, 1.1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(t.Set(0, 1, 0.0).ok());
  EXPECT_TRUE(t.Set(0, 2, 1.0).ok());
}

TEST(TrustMatrixTest, ExplicitZeroIsAnOpinion) {
  // Colluders *report* 0; that is different from "no opinion".
  TrustMatrix t(3);
  ASSERT_TRUE(t.Set(0, 1, 0.0).ok());
  EXPECT_TRUE(t.HasOpinion(0, 1));
  EXPECT_EQ(t.OpinionCountAbout(1), 1u);
}

TEST(TrustMatrixTest, SelfTrustRejected) {
  TrustMatrix t(3);
  EXPECT_EQ(t.Set(1, 1, 0.5).code(), StatusCode::kInvalidArgument);
}

TEST(TrustMatrixTest, OutOfRangeRejected) {
  TrustMatrix t(3);
  EXPECT_EQ(t.Set(3, 0, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(t.Set(0, 3, 0.5).code(), StatusCode::kOutOfRange);
  EXPECT_DOUBLE_EQ(t.Get(9, 0), 0.0);
  EXPECT_FALSE(t.HasOpinion(9, 0));
}

TEST(TrustMatrixTest, Erase) {
  TrustMatrix t(3);
  ASSERT_TRUE(t.Set(0, 1, 0.4).ok());
  t.Erase(0, 1);
  EXPECT_FALSE(t.HasOpinion(0, 1));
  t.Erase(0, 1);  // idempotent
  t.Erase(9, 1);  // out of range is a no-op
}

TEST(TrustMatrixTest, ColumnAggregates) {
  TrustMatrix t(4);
  ASSERT_TRUE(t.Set(0, 2, 0.5).ok());
  ASSERT_TRUE(t.Set(1, 2, 0.7).ok());
  ASSERT_TRUE(t.Set(3, 2, 0.0).ok());
  EXPECT_EQ(t.OpinionCountAbout(2), 3u);
  EXPECT_DOUBLE_EQ(t.ColumnSum(2), 1.2);
  EXPECT_EQ(t.OpinionCountAbout(0), 0u);
  EXPECT_DOUBLE_EQ(t.ColumnSum(0), 0.0);
}

TEST(TrustMatrixTest, DenseColumnAndIndicator) {
  TrustMatrix t(4);
  ASSERT_TRUE(t.Set(1, 3, 0.6).ok());
  ASSERT_TRUE(t.Set(2, 3, 0.0).ok());
  auto col = t.DenseColumn(3);
  auto ind = t.OpinionIndicatorColumn(3);
  ASSERT_EQ(col.size(), 4u);
  EXPECT_DOUBLE_EQ(col[0], 0.0);
  EXPECT_DOUBLE_EQ(col[1], 0.6);
  EXPECT_DOUBLE_EQ(col[2], 0.0);
  EXPECT_DOUBLE_EQ(ind[0], 0.0);
  EXPECT_DOUBLE_EQ(ind[1], 1.0);
  EXPECT_DOUBLE_EQ(ind[2], 1.0);  // explicit zero is still an opinion
  EXPECT_DOUBLE_EQ(ind[3], 0.0);
}

TEST(TrustMatrixTest, RowAccess) {
  TrustMatrix t(3);
  ASSERT_TRUE(t.Set(0, 1, 0.3).ok());
  ASSERT_TRUE(t.Set(0, 2, 0.8).ok());
  const std::vector<std::pair<NodeId, double>> expected = {{1, 0.3}, {2, 0.8}};
  EXPECT_EQ(t.Row(0), expected);
  EXPECT_EQ(t.TotalOpinions(), 2u);
}

TEST(TrustMatrixTest, RowsStaySortedWhateverTheOrder) {
  constexpr uint32_t kNodes = 12;
  TrustMatrix t(kNodes);
  // Node 0 rates 1..11 in descending column order, node 1 rates everyone
  // else in a shuffled order.
  for (NodeId j = kNodes - 1; j >= 1; --j) {
    ASSERT_TRUE(t.Set(0, j, 0.05 * j).ok());
  }
  for (NodeId j : {7u, 2u, 11u, 0u, 5u, 9u, 3u, 10u, 6u, 4u, 8u}) {
    ASSERT_TRUE(t.Set(1, j, 0.08 * j).ok());
  }
  ASSERT_TRUE(t.Set(0, 5, 0.9).ok());  // overwrite
  t.Erase(0, 3);                       // present
  t.Erase(1, 1);                       // absent
  t.Erase(0, kNodes);                  // column out of range
  t.Erase(kNodes, 2);                  // row out of range

  std::vector<std::pair<NodeId, double>> expected0, expected1;
  for (NodeId j = 1; j < kNodes; ++j) {
    if (j != 3) expected0.emplace_back(j, j == 5 ? 0.9 : 0.05 * j);
  }
  for (NodeId j = 0; j < kNodes; ++j) {
    if (j != 1) expected1.emplace_back(j, 0.08 * j);
  }
  for (NodeId i : {0u, 1u}) {
    const auto& row = t.Row(i);
    for (size_t k = 1; k < row.size(); ++k) {
      EXPECT_LT(row[k - 1].first, row[k].first) << "row " << i << " at " << k;
    }
  }
  EXPECT_EQ(t.Row(0), expected0);
  EXPECT_EQ(t.Row(1), expected1);
  EXPECT_EQ(t.TotalOpinions(), expected0.size() + expected1.size());
}

}  // namespace
}  // namespace dgt
