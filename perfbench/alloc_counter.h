// Heap-allocation counting for the traced run: the benchmark replaces the
// global operator new, and counts calls only while counting is switched
// on around a replayed layer call.

#ifndef DGT_PERFBENCH_ALLOC_COUNTER_H_
#define DGT_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

void SetAllocCounting(bool on);
// Allocations through the plain operator new (and the array and nothrow
// forms that forward to it) while counting was on, from any thread.
uint64_t AllocCount();

// Runs fn() with counting on and returns the allocations it made.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = AllocCount();
  SetAllocCounting(true);
  fn();
  SetAllocCounting(false);
  return AllocCount() - before;
}

}  // namespace perfbench

#endif  // DGT_PERFBENCH_ALLOC_COUNTER_H_
