// Streaming mean/variance (Welford) for experiments and benches.

#ifndef DGT_COMMON_STATS_H_
#define DGT_COMMON_STATS_H_

#include <cstddef>

namespace dgt {

// Streaming mean and variance (Welford's algorithm). O(1) space.
class RunningStats {
 public:
  RunningStats() = default;

  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  // Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Merges another accumulator into this one (parallel Welford).
  void Merge(const RunningStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace dgt

#endif  // DGT_COMMON_STATS_H_
