#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace dgt {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  size_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ = n;
}

}  // namespace dgt
