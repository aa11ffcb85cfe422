// Unit test of the benchmark's exact percentile code (stats.h). Exits 0
// when every check passes; prints each failure and exits 1 otherwise.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void TestNearestRank() {
  Check(perfbench::NearestRank(0, 500) == 0, "no samples have no rank");
  Check(perfbench::NearestRank(1, 500) == 1, "p50 of 1 sample is rank 1");
  Check(perfbench::NearestRank(1, 999) == 1, "p99.9 of 1 sample is rank 1");
  Check(perfbench::NearestRank(2, 500) == 1, "p50 of 2 samples is rank 1");
  Check(perfbench::NearestRank(3, 500) == 2, "p50 of 3 samples is rank 2");
  Check(perfbench::NearestRank(100, 990) == 99,
        "p99 of 100 samples is rank 99");
  Check(perfbench::NearestRank(101, 990) == 100,
        "p99 of 101 samples is rank 100");
  Check(perfbench::NearestRank(1000, 999) == 999,
        "p99.9 of 1000 samples is rank 999");
  Check(perfbench::NearestRank(10, 0) == 1, "p0 clamps to the minimum");
  Check(perfbench::NearestRank(10, 1000) == 10, "p100 is the maximum");
}

void TestOneSample() {
  const perfbench::Samples<int64_t> s({42});
  Check(s.count() == 1, "one sample counted");
  Check(s.Median() == 42, "median of one sample");
  Check(s.Percentile(990) == 42, "p99 of one sample");
  Check(s.Mean() == 42.0, "mean of one sample");
}

void TestTies() {
  const perfbench::Samples<int64_t> s({7, 3, 7, 7, 1, 7});
  // Sorted: 1 3 7 7 7 7.
  Check(s.Median() == 7, "median inside a run of ties");
  Check(s.Percentile(330) == 3, "p33 just below the tie run");
  Check(s.Percentile(340) == 7, "p34 enters the tie run");
  Check(s.Percentile(990) == 7, "p99 on ties");
}

void TestHundredSamples() {
  // Samples 1..100 shuffled: p99 must be the 99th value, p50 the 50th.
  std::vector<int64_t> values;
  for (int64_t v = 100; v >= 1; --v) values.push_back((v * 37) % 101);
  const perfbench::Samples<int64_t> s(values);
  Check(s.count() == 100, "hundred samples counted");
  Check(s.Percentile(990) == 99, "p99 of 1..100 is 99");
  Check(s.Percentile(500) == 50, "p50 of 1..100 is 50");
  Check(s.Percentile(999) == 100, "p99.9 of 1..100 is 100");
  Check(s.Mean() == 50.5, "mean of 1..100");
}

void TestEmpty() {
  const perfbench::Samples<double> s;
  Check(s.empty(), "default samples are empty");
  Check(s.Median() == 0.0, "median of nothing is zero");
  Check(s.Mean() == 0.0, "mean of nothing is zero");
}

}  // namespace

int main() {
  TestNearestRank();
  TestOneSample();
  TestTies();
  TestHundredSamples();
  TestEmpty();
  if (failures != 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
