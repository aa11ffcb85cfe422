#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

namespace dgt {
namespace obs {
namespace {

// Position of the most significant set bit (value >= 1).
uint32_t MsbPosition(uint64_t value) {
#if defined(__GNUC__) || defined(__clang__)
  return 63u - static_cast<uint32_t>(__builtin_clzll(value));
#else
  uint32_t pos = 0;
  while (value >>= 1) ++pos;
  return pos;
#endif
}

// Compact deterministic number formatting for the exposition: integral
// values render without a decimal point, everything else via %g.
std::string FormatNumber(double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

}  // namespace

uint32_t HistogramBucketIndex(uint64_t value) {
  if (value < kHistogramSubBuckets) return static_cast<uint32_t>(value);
  const uint32_t msb = MsbPosition(value);  // >= kHistogramSubBits
  const uint32_t shift = msb - kHistogramSubBits;
  const uint32_t sub = static_cast<uint32_t>(
      (value >> shift) - kHistogramSubBuckets);
  return kHistogramSubBuckets + shift * kHistogramSubBuckets + sub;
}

uint64_t HistogramBucketLow(uint32_t index) {
  if (index < kHistogramSubBuckets) return index;
  const uint32_t shift = (index - kHistogramSubBuckets) / kHistogramSubBuckets;
  const uint32_t sub = (index - kHistogramSubBuckets) % kHistogramSubBuckets;
  return static_cast<uint64_t>(kHistogramSubBuckets + sub) << shift;
}

uint64_t HistogramBucketHigh(uint32_t index) {
  if (index < kHistogramSubBuckets) return index;
  const uint32_t shift = (index - kHistogramSubBuckets) / kHistogramSubBuckets;
  return HistogramBucketLow(index) + ((uint64_t{1} << shift) - 1);
}

size_t Counter::ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  if (other.buckets.empty()) return;
  if (buckets.empty()) {
    buckets = other.buckets;
    return;
  }
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramSnapshot::ValueAtPercentile(double p) const {
  if (count == 0 || buckets.empty()) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(p/100 * count), with rank 0 bumped to 1 so p=0 is the minimum.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      return static_cast<double>(HistogramBucketHigh(i));
    }
  }
  return static_cast<double>(HistogramBucketHigh(kHistogramBuckets - 1));
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.buckets.resize(kHistogramBuckets);
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + ' ' + std::to_string(value) + '\n';
  }
  for (const auto& [name, value] : gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + ' ' + std::to_string(value) + '\n';
  }
  for (const auto& [name, h] : histograms) {
    out += "# TYPE " + name + " summary\n";
    out += name + "{quantile=\"0.5\"} " +
           FormatNumber(h.ValueAtPercentile(50.0)) + '\n';
    out += name + "{quantile=\"0.99\"} " +
           FormatNumber(h.ValueAtPercentile(99.0)) + '\n';
    out += name + "{quantile=\"0.999\"} " +
           FormatNumber(h.ValueAtPercentile(99.9)) + '\n';
    out += name + "_sum " + std::to_string(h.sum) + '\n';
    out += name + "_count " + std::to_string(h.count) + '\n';
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

uint64_t MetricsRegistry::SetCallbackGauge(const std::string& name,
                                           std::function<int64_t()> fn) {
  MutexLock lock(mu_);
  const uint64_t token = next_token_++;
  callback_gauges_[name] = CallbackGauge{token, std::move(fn)};
  return token;
}

void MetricsRegistry::RemoveCallbackGauge(const std::string& name,
                                          uint64_t token) {
  MutexLock lock(mu_);
  auto it = callback_gauges_.find(name);
  if (it != callback_gauges_.end() && it->second.token == token) {
    callback_gauges_.erase(it);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  // Callback gauges sample owner state under the registry mutex; owners
  // must RemoveCallbackGauge before that state is destroyed.
  for (const auto& [name, cb] : callback_gauges_) {
    snap.gauges[name] = cb.fn();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Snapshot();
  }
  return snap;
}

}  // namespace obs
}  // namespace dgt
