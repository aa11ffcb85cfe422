// Streaming mean (Welford's update) for experiments and benches.

#ifndef DGT_COMMON_STATS_H_
#define DGT_COMMON_STATS_H_

#include <cstddef>

namespace dgt {

// Streaming mean by Welford's recurrence. O(1) space.
class RunningStats {
 public:
  void Add(double x) {
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
  }

  // 0 before the first sample.
  double mean() const { return mean_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
};

}  // namespace dgt

#endif  // DGT_COMMON_STATS_H_
