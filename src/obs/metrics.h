// Process-wide metrics for the serving stack: cheap counters, gauges and
// a log-bucketed latency histogram behind one MetricsRegistry, exported
// as Prometheus-style text and over the wire via the stats RPC
// (rpc/wire.h kStatsRequest). The design constraint is the serving hot
// path: Increment/Record are lock-free relaxed atomics (counters sharded
// by thread to dodge cache-line ping-pong), and all aggregation cost is
// paid on the read side by Snapshot().
//
// Registration (GetCounter/GetGauge/GetHistogram) takes the registry
// mutex and is meant for setup time; instruments are never removed, so
// the returned pointers stay valid for the registry's lifetime and hot
// paths hold raw pointers. Callback gauges sample owner-held state (queue
// depths, snapshot age) at snapshot time; owners register them with a
// token and must remove them before the sampled state dies. A stale token
// never removes a newer registration with the same name, so interleaved
// owner lifetimes (server A stops after server B started) stay safe.
//
// LatencyHistogram buckets are log-linear, HdrHistogram-style: values < 16 get
// exact unit buckets, then each power of two splits into 16 sub-buckets
// (kSubBits = 4), for 976 buckets covering the full uint64 range at
// <= 6.25% relative error. Snapshots are plain data, mergeable across
// histograms (associative + commutative), which is what lets per-thread
// recorders in the loadgen fold into one distribution (bench_util.h).

#ifndef DGT_OBS_METRICS_H_
#define DGT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace dgt {
namespace obs {

// --- log-linear bucket math (shared by the histogram, its snapshots,
// and the wire encoding of HistogramStat) ---

inline constexpr uint32_t kHistogramSubBits = 4;
inline constexpr uint32_t kHistogramSubBuckets = 1u << kHistogramSubBits;
// 16 exact unit buckets for [0, 16), then 16 sub-buckets per power of
// two for [2^4, 2^64): 16 + 60 * 16 = 976.
inline constexpr uint32_t kHistogramBuckets =
    kHistogramSubBuckets + (64 - kHistogramSubBits) * kHistogramSubBuckets;

// Bucket containing `value`; monotone in value.
uint32_t HistogramBucketIndex(uint64_t value);
// Inclusive lower bound of the bucket's value range.
uint64_t HistogramBucketLow(uint32_t index);
// Inclusive upper bound (the largest value mapping to the bucket); this
// is the representative percentile queries report, so quantiles are
// conservative (never under-reported) within the 6.25% bucket width.
uint64_t HistogramBucketHigh(uint32_t index);

// A sharded monotone counter. Increment is a relaxed fetch_add on a
// per-thread shard; Value() sums the shards (reads may race concurrent
// increments — the result is some valid point in the increment order).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  // Threads are striped across shards round-robin at first use; the slot
  // is shared by every Counter, which is fine — the point is that two
  // hot threads usually land on different cache lines.
  static size_t ShardIndex();

  std::array<Shard, kShards> shards_{};
};

// A last-writer-wins signed gauge.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Plain-data histogram state: what Snapshot() returns, what travels in a
// StatsResponse, and what bench_util's recorders merge. `buckets` is
// either empty (nothing recorded) or dense with kHistogramBuckets
// entries.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;  // sum of recorded values (saturating semantics not
                     // needed at realistic latencies/counts)
  std::vector<uint64_t> buckets;

  // Associative and commutative, so per-thread snapshots fold in any
  // order to the same result (pinned by tests/obs/metrics_test.cc).
  void Merge(const HistogramSnapshot& other);

  // Nearest-rank percentile over the buckets, reported as the bucket's
  // inclusive upper bound (<= 6.25% above the true sample). p in
  // [0, 100]; 0 when empty.
  double ValueAtPercentile(double p) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

// Log-bucketed histogram with a lock-free record path: one relaxed
// fetch_add on the value's bucket plus count/sum. Snapshot() reads the
// buckets without stopping writers, so a snapshot taken mid-record may
// see the bucket but not yet the sum (or vice versa) — fine for
// monitoring, and exact whenever writers are quiescent (the loadgen's
// end-of-run fetch).
class LatencyHistogram {
 public:
  void Record(uint64_t value) {
    buckets_[HistogramBucketIndex(value)].fetch_add(1,
                                                    std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  // Convenience for fractional microsecond timers: rounds to the nearest
  // integer unit, clamping negatives to 0.
  void RecordValue(double value) {
    Record(value <= 0.0 ? 0 : static_cast<uint64_t>(value + 0.5));
  }

  HistogramSnapshot Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// One consistent-enough view of a registry: counters/gauges by name
// (std::map, so exposition order is deterministic), histograms as
// mergeable snapshots. Callback gauges appear alongside stored gauges.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Prometheus text exposition: counters/gauges as-is, histograms as
  // summaries (quantile labels + _sum/_count). Pinned by a golden test.
  std::string ToPrometheusText() const;
};

// Name -> instrument registry. Get* return a stable pointer, creating
// the instrument on first use; names should be Prometheus-compatible
// ([a-z0-9_]). Instances are independent (tests use their own); the
// process-wide default is Global().
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the tools and default-constructed servers
  // instrument into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name) DGT_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) DGT_EXCLUDES(mu_);
  LatencyHistogram* GetHistogram(const std::string& name) DGT_EXCLUDES(mu_);

  // Registers (or replaces) a gauge computed at snapshot time — queue
  // depths, snapshot staleness. Returns a token the owner passes to
  // RemoveCallbackGauge before the sampled state is destroyed; removal
  // with a stale token (the name was re-registered since) is a no-op.
  uint64_t SetCallbackGauge(const std::string& name,
                            std::function<int64_t()> fn) DGT_EXCLUDES(mu_);
  void RemoveCallbackGauge(const std::string& name, uint64_t token)
      DGT_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const DGT_EXCLUDES(mu_);

 private:
  struct CallbackGauge {
    uint64_t token = 0;
    std::function<int64_t()> fn;
  };

  // mu_ guards the name->instrument maps only — never the instruments'
  // own hot-path state, which stays lock-free by design (class comment).
  // The unique_ptr targets are stable, so handing out raw pointers while
  // the maps grow under mu_ is safe.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DGT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DGT_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      DGT_GUARDED_BY(mu_);
  std::map<std::string, CallbackGauge> callback_gauges_ DGT_GUARDED_BY(mu_);
  uint64_t next_token_ DGT_GUARDED_BY(mu_) = 1;
};

}  // namespace obs
}  // namespace dgt

#endif  // DGT_OBS_METRICS_H_
