// Degree-distribution tail checks: ComplementaryCdf and PowerLawKsDistance
// (graph/graph_stats.h), which test whether an overlay's degrees follow
// the power law the paper assumes (alpha ~= 2.3).

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "graph/graph_stats.h"
#include "graph/pa_generator.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(ComplementaryCdfTest, EmptyInput) {
  EXPECT_TRUE(ComplementaryCdf({}).empty());
}

TEST(ComplementaryCdfTest, KnownSample) {
  // Sample {1, 1, 2, 4}: P(X>=0)=1, P(X>=1)=1, P(X>=2)=0.5,
  // P(X>=3)=0.25, P(X>=4)=0.25.
  auto ccdf = ComplementaryCdf({1, 1, 2, 4});
  ASSERT_EQ(ccdf.size(), 5u);
  EXPECT_DOUBLE_EQ(ccdf[0], 1.0);
  EXPECT_DOUBLE_EQ(ccdf[1], 1.0);
  EXPECT_DOUBLE_EQ(ccdf[2], 0.5);
  EXPECT_DOUBLE_EQ(ccdf[3], 0.25);
  EXPECT_DOUBLE_EQ(ccdf[4], 0.25);
}

TEST(ComplementaryCdfTest, MonotoneNonIncreasing) {
  Rng rng(3);
  std::vector<uint32_t> sample(500);
  for (auto& v : sample) v = static_cast<uint32_t>(rng.NextBelow(50));
  auto ccdf = ComplementaryCdf(sample);
  for (size_t k = 1; k < ccdf.size(); ++k) EXPECT_LE(ccdf[k], ccdf[k - 1]);
}

TEST(PowerLawKsTest, RejectsBadInput) {
  EXPECT_FALSE(PowerLawKsDistance({5, 6}, 2, 1.0).ok());
  EXPECT_FALSE(PowerLawKsDistance({1, 1}, 5, 2.5).ok());
}

TEST(PowerLawKsTest, ExactPowerLawScoresLow) {
  // Draw from a discretised Pareto with alpha = 2.5 via inverse CDF.
  Rng rng(7);
  std::vector<uint32_t> sample(20000);
  const double alpha = 2.5;
  for (auto& v : sample) {
    double u = 1.0 - rng.NextDouble();
    v = static_cast<uint32_t>(2.0 * std::pow(u, -1.0 / (alpha - 1.0)));
  }
  auto ks = PowerLawKsDistance(sample, 2, alpha);
  ASSERT_TRUE(ks.ok());
  EXPECT_LT(ks.value(), 0.1);
}

TEST(PowerLawKsTest, UniformSampleScoresHigh) {
  Rng rng(9);
  std::vector<uint32_t> sample(5000);
  for (auto& v : sample) {
    v = 2 + static_cast<uint32_t>(rng.NextBelow(20));
  }
  auto ks = PowerLawKsDistance(sample, 2, 2.5);
  ASSERT_TRUE(ks.ok());
  EXPECT_GT(ks.value(), 0.3);
}

TEST(PowerLawKsTest, PaDegreesAreMorePowerLawThanErdosRenyi) {
  PaOptions o;
  o.num_nodes = 4000;
  o.edges_per_node = 2;
  o.seed = 11;
  Graph pa = GeneratePreferentialAttachment(o).value();
  std::vector<uint32_t> pa_deg(pa.num_nodes());
  for (NodeId u = 0; u < pa.num_nodes(); ++u) pa_deg[u] = pa.Degree(u);
  double alpha = EstimatePowerLawExponent(pa, 2);
  auto pa_ks = PowerLawKsDistance(pa_deg, 2, alpha);
  ASSERT_TRUE(pa_ks.ok());
  // The PA tail fits its own MLE alpha closely.
  EXPECT_LT(pa_ks.value(), 0.15);
}

}  // namespace
}  // namespace dgt
