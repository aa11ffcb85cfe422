// Exact order statistics over raw samples for the benchmark's reported
// numbers. Percentiles are nearest-rank on the sorted samples: the value
// at rank ceil(p * n), computed in integer per-mille so that p99 over
// exactly 100 samples is the 99th value, not the 100th a floating-point
// 0.99 * 100 would round up to. Every reported percentile carries the
// sample count it was taken over.

#ifndef DGT_PERFBENCH_STATS_H_
#define DGT_PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile given in tenths of a percent: 500 = p50, 990 = p99,
// 999 = p99.9.
using PerMille = uint32_t;

// 1-based nearest rank of percentile `p` among `n` samples, in [1, n];
// 0 when n == 0.
inline size_t NearestRank(size_t n, PerMille p) {
  if (n == 0) return 0;
  const uint64_t scaled = static_cast<uint64_t>(p) * n;
  const size_t rank = static_cast<size_t>((scaled + 999) / 1000);
  return std::clamp<size_t>(rank, 1, n);
}

// Sorted copy of raw samples, queried for exact percentiles.
template <typename T>
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<T> values) : sorted_(std::move(values)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  size_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  // Nearest-rank percentile; T{} when there are no samples.
  T Percentile(PerMille p) const {
    const size_t rank = NearestRank(sorted_.size(), p);
    return rank == 0 ? T{} : sorted_[rank - 1];
  }
  T Median() const { return Percentile(500); }

  double Mean() const {
    if (sorted_.empty()) return 0.0;
    long double sum = 0.0L;
    for (const T& v : sorted_) sum += static_cast<long double>(v);
    return static_cast<double>(sum / static_cast<long double>(sorted_.size()));
  }

 private:
  std::vector<T> sorted_;
};

}  // namespace perfbench

#endif  // DGT_PERFBENCH_STATS_H_
