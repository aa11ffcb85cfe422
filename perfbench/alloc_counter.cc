#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

}  // namespace

void SetAllocCounting(bool on) {
  counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() { return allocations.load(std::memory_order_relaxed); }

}  // namespace perfbench

// Replaces the global allocation function with the same malloc loop as the
// default one, plus the count. The default operator delete (free) matches.
void* operator new(std::size_t size) {
  if (perfbench::counting.load(std::memory_order_relaxed)) {
    perfbench::allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
