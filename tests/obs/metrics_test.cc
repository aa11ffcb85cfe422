// obs/metrics.h contract tests: log-linear bucket math (coverage,
// monotonicity, bounded relative error), snapshot merge algebra
// (associative + commutative, the property that lets per-thread
// recorders fold in any order), exposition goldens for the JSON and
// Prometheus text formats, callback-gauge token semantics, and a
// concurrent increment/record/snapshot stress that the TSan CI leg runs
// to certify the lock-free hot path.

#include "obs/metrics.h"

#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace dgt {
namespace obs {
namespace {

TEST(HistogramBucketsTest, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < 2 * kHistogramSubBuckets; ++v) {
    // [0, 32): the unit buckets plus the first power-of-two band, whose
    // sub-buckets are still width 1.
    const uint32_t idx = HistogramBucketIndex(v);
    EXPECT_EQ(HistogramBucketLow(idx), v);
    EXPECT_EQ(HistogramBucketHigh(idx), v);
  }
}

TEST(HistogramBucketsTest, EveryValueFallsInsideItsBucket) {
  std::vector<uint64_t> probes = {0, 1, 15, 16, 31, 32, 33, 100, 1000,
                                  4095, 4096, 65535, 1u << 20,
                                  uint64_t{1} << 40, UINT64_MAX};
  for (uint64_t v : probes) {
    const uint32_t idx = HistogramBucketIndex(v);
    ASSERT_LT(idx, kHistogramBuckets) << v;
    EXPECT_LE(HistogramBucketLow(idx), v) << v;
    EXPECT_GE(HistogramBucketHigh(idx), v) << v;
  }
  EXPECT_EQ(HistogramBucketIndex(UINT64_MAX), kHistogramBuckets - 1);
}

TEST(HistogramBucketsTest, BucketsTileTheRangeMonotonically) {
  // Adjacent buckets abut exactly: High(i) + 1 == Low(i + 1), and the
  // index function is monotone across each boundary.
  for (uint32_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    ASSERT_EQ(HistogramBucketHigh(i) + 1, HistogramBucketLow(i + 1)) << i;
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketHigh(i)), i);
    EXPECT_EQ(HistogramBucketIndex(HistogramBucketLow(i + 1)), i + 1);
  }
}

TEST(HistogramBucketsTest, RelativeErrorIsBounded) {
  // Bucket width never exceeds 1/16th of the bucket's lower bound, the
  // <= 6.25% relative-error guarantee the header documents.
  for (uint32_t i = kHistogramSubBuckets; i < kHistogramBuckets; ++i) {
    const uint64_t low = HistogramBucketLow(i);
    const uint64_t width = HistogramBucketHigh(i) - low;
    EXPECT_LE(width, low / kHistogramSubBuckets) << "bucket " << i;
  }
}

TEST(CounterTest, IncrementAndDeltaSum) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(-4);
  EXPECT_EQ(g.Value(), -4);
  g.Add(10);
  EXPECT_EQ(g.Value(), 6);
}

TEST(LatencyHistogramTest, RecordsCountSumAndPercentiles) {
  LatencyHistogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 6u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 2.0);
  // Nearest rank over unit buckets is exact: rank ceil(.5*3)=2 -> 2.
  EXPECT_DOUBLE_EQ(snap.ValueAtPercentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.ValueAtPercentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.ValueAtPercentile(100.0), 3.0);
  // Out-of-range p clamps instead of misbehaving.
  EXPECT_DOUBLE_EQ(snap.ValueAtPercentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.ValueAtPercentile(250.0), 3.0);
}

TEST(LatencyHistogramTest, RecordValueRoundsAndClampsNegatives) {
  LatencyHistogram h;
  h.RecordValue(-3.5);  // clamps to 0
  h.RecordValue(2.4);   // rounds to 2
  h.RecordValue(2.5);   // rounds to 3
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 5u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
}

TEST(HistogramSnapshotTest, EmptySnapshotReportsZero) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.ValueAtPercentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
}

HistogramSnapshot SnapshotOf(std::vector<uint64_t> values) {
  LatencyHistogram h;
  for (uint64_t v : values) h.Record(v);
  return h.Snapshot();
}

TEST(HistogramSnapshotTest, MergeIsAssociativeAndCommutative) {
  const HistogramSnapshot a = SnapshotOf({1, 5, 900});
  const HistogramSnapshot b = SnapshotOf({2, 2, 1u << 20});
  const HistogramSnapshot c;  // default-empty: no buckets vector at all

  HistogramSnapshot ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  HistogramSnapshot bc = b;
  bc.Merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);

  HistogramSnapshot ba = b;
  ba.Merge(a);
  HistogramSnapshot ab = a;
  ab.Merge(b);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.sum, ba.sum);
  EXPECT_EQ(ab.buckets, ba.buckets);

  // Merging into an empty snapshot adopts the dense bucket vector.
  HistogramSnapshot from_empty;
  from_empty.Merge(a);
  EXPECT_EQ(from_empty.buckets, a.buckets);
  EXPECT_EQ(from_empty.count, a.count);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("requests");
  Counter* c2 = registry.GetCounter("requests");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("other"), c1);
  EXPECT_EQ(registry.GetGauge("depth"), registry.GetGauge("depth"));
  EXPECT_EQ(registry.GetHistogram("lat"), registry.GetHistogram("lat"));
}

TEST(MetricsRegistryTest, CallbackGaugeTokenSemantics) {
  MetricsRegistry registry;
  const uint64_t old_token =
      registry.SetCallbackGauge("depth", [] { return int64_t{7}; });
  EXPECT_EQ(registry.Snapshot().gauges.at("depth"), 7);

  // Re-registering the name replaces the callback and invalidates the
  // old token...
  registry.SetCallbackGauge("depth", [] { return int64_t{9}; });
  EXPECT_EQ(registry.Snapshot().gauges.at("depth"), 9);

  // ...so removal with the stale token is a no-op (the newer owner's
  // registration survives an older owner's teardown).
  registry.RemoveCallbackGauge("depth", old_token);
  EXPECT_EQ(registry.Snapshot().gauges.at("depth"), 9);
}

TEST(MetricsRegistryTest, RemovedCallbackGaugeDisappears) {
  MetricsRegistry registry;
  const uint64_t token =
      registry.SetCallbackGauge("depth", [] { return int64_t{1}; });
  registry.RemoveCallbackGauge("depth", token);
  EXPECT_EQ(registry.Snapshot().gauges.count("depth"), 0u);
}

TEST(MetricsRegistryTest, ExpositionGoldens) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("requests_total");
  requests->Increment(2);
  requests->Increment();
  registry.GetGauge("queue_depth")->Set(-4);
  registry.SetCallbackGauge("cb_depth", [] { return int64_t{7}; });
  LatencyHistogram* lat = registry.GetHistogram("latency_us");
  lat->Record(1);
  lat->Record(2);
  lat->Record(3);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.ToPrometheusText(),
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
            "# TYPE cb_depth gauge\n"
            "cb_depth 7\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth -4\n"
            "# TYPE latency_us summary\n"
            "latency_us{quantile=\"0.5\"} 2\n"
            "latency_us{quantile=\"0.99\"} 3\n"
            "latency_us{quantile=\"0.999\"} 3\n"
            "latency_us_sum 6\n"
            "latency_us_count 3\n");
}

TEST(MetricsRegistryTest, NonIntegralMean) {
  EXPECT_EQ(SnapshotOf({1, 2}).Mean(), 1.5);
}

// The TSan certification test: writers hammer the lock-free hot path
// (sharded counter increments, histogram records, gauge stores) while a
// reader snapshots the registry concurrently. Totals are exact once the
// writers have joined.
TEST(MetricsRegistryTest, ConcurrentIncrementAndSnapshot) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hits");
  Gauge* gauge = registry.GetGauge("level");
  LatencyHistogram* hist = registry.GetHistogram("lat");
  registry.SetCallbackGauge("cb", [] { return int64_t{5}; });

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = registry.Snapshot();
      // Monotone counter: any concurrent observation is <= the final
      // total.
      EXPECT_LE(snap.counters.at("hits"), kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Set(static_cast<int64_t>(i));
        hist->Record(i % 128);
      }
      (void)t;
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.counters.at("hits"), kThreads * kPerThread);
  EXPECT_EQ(final_snap.histograms.at("lat").count, kThreads * kPerThread);
  EXPECT_EQ(final_snap.gauges.at("cb"), 5);
}

}  // namespace
}  // namespace obs
}  // namespace dgt
