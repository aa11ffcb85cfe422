#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  uint64_t s1 = 123, s2 = 123;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  }
  EXPECT_EQ(s1, s2);
}

TEST(SplitMix64Test, AdvancesState) {
  uint64_t s = 0;
  uint64_t a = SplitMix64(s);
  uint64_t b = SplitMix64(s);
  EXPECT_NE(a, b);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, NextDoubleRange) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    double v = rng.NextDouble(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, DiscreteMatchesWeights) {
  Rng rng(31);
  std::vector<double> w = {1.0, 0.0, 3.0};
  const int kN = 60000;
  std::vector<int> hits(3, 0);
  for (int i = 0; i < kN; ++i) ++hits[rng.NextDiscrete(w)];
  EXPECT_EQ(hits[1], 0);
  EXPECT_NEAR(static_cast<double>(hits[0]) / kN, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(hits[2]) / kN, 0.75, 0.01);
}

TEST(RngTest, DiscreteSingleton) {
  Rng rng(37);
  std::vector<double> w = {5.0};
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.NextDiscrete(w), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(41);
  for (uint32_t n : {1u, 2u, 5u, 10u, 100u}) {
    for (uint32_t k = 0; k <= n; k += std::max(1u, n / 4)) {
      auto s = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(s.size(), k);
      std::set<uint32_t> uniq(s.begin(), s.end());
      EXPECT_EQ(uniq.size(), k) << "duplicates for n=" << n << " k=" << k;
      for (uint32_t v : s) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSetIsPermutation) {
  Rng rng(43);
  auto s = rng.SampleWithoutReplacement(20, 20);
  std::sort(s.begin(), s.end());
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, SampleWithoutReplacementUniformCoverage) {
  // Every element should be sampled roughly equally often.
  Rng rng(47);
  const int kTrials = 30000;
  std::vector<int> hits(10, 0);
  for (int t = 0; t < kTrials; ++t) {
    for (uint32_t v : rng.SampleWithoutReplacement(10, 3)) ++hits[v];
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / (kTrials * 3), 0.1, 0.01);
  }
}

TEST(RngTest, StreamAtIsAPureFunctionOfSeedStreamCounter) {
  Rng a(42), b(42);
  // Consuming state must not change the derived streams: that is what
  // makes StreamAt safe to call from any worker in any order.
  for (int i = 0; i < 10; ++i) a.NextU64();
  Rng sa = a.StreamAt(7, 3), sb = b.StreamAt(7, 3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sa.NextU64(), sb.NextU64());
}

TEST(RngTest, StreamAtDistinctStreamsDiverge) {
  Rng root(42);
  // Adjacent (stream, counter) pairs — the event-driven engine's (node,
  // event) lattice — must produce unrelated draws.
  Rng s00 = root.StreamAt(0, 0);
  Rng s01 = root.StreamAt(0, 1);
  Rng s10 = root.StreamAt(1, 0);
  int eq01 = 0, eq10 = 0;
  for (int i = 0; i < 100; ++i) {
    uint64_t v = s00.NextU64();
    if (v == s01.NextU64()) ++eq01;
    if (v == s10.NextU64()) ++eq10;
  }
  EXPECT_LT(eq01, 3);
  EXPECT_LT(eq10, 3);
}

TEST(RngTest, StreamAtSurvivesCopies) {
  Rng root(9);
  Rng copy = root;
  copy.NextU64();
  Rng sa = root.StreamAt(5, 11), sb = copy.StreamAt(5, 11);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sa.NextU64(), sb.NextU64());
}

TEST(RngTest, StreamAtDrawsAreWellDistributed) {
  // First draw across a lattice of streams should look uniform (the
  // engines draw push targets from exactly this pattern).
  Rng root(1234);
  const int kStreams = 5000;
  int counts[16] = {0};
  for (int s = 0; s < kStreams; ++s) {
    for (int step = 0; step < 4; ++step) {
      Rng r = root.StreamAt(s, step);
      ++counts[r.NextBelow(16)];
    }
  }
  const double expected = kStreams * 4 / 16.0;
  for (int b = 0; b < 16; ++b) {
    EXPECT_NEAR(counts[b] / expected, 1.0, 0.1) << "bucket " << b;
  }
}

TEST(Mix64Test, PureAndAvalanching) {
  EXPECT_EQ(Mix64(123), Mix64(123));
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (int b = 0; b < 64; ++b) {
    uint64_t d = Mix64(0x12345678u) ^ Mix64(0x12345678u ^ (1ull << b));
    total_flips += __builtin_popcountll(d);
  }
  EXPECT_NEAR(total_flips / 64.0, 32.0, 6.0);
}

class RngBitUniformityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBitUniformityTest, EachBitIsUnbiased) {
  Rng rng(GetParam());
  const int kN = 20000;
  int counts[64] = {0};
  for (int i = 0; i < kN; ++i) {
    uint64_t v = rng.NextU64();
    for (int b = 0; b < 64; ++b) counts[b] += (v >> b) & 1;
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]) / kN, 0.5, 0.02)
        << "bit " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBitUniformityTest,
                         ::testing::Values(1, 2, 1234567, 0xdeadbeef));

}  // namespace
}  // namespace dgt
