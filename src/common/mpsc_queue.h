// BoundedWorkQueue: the bounded multi-producer queue behind both serving
// front-ends. Producers TryPush concurrently and see explicit
// backpressure — a full (or closed) queue rejects the push and counts it
// in rejected() — instead of unbounded buffering; the owner turns the
// rejection into its own reply. Consumers take items in one of two ways:
//
//   - drain-all at a boundary: the serving layer's trust-update ingest
//     (src/serve/service.h) empties the queue with one unlimited
//     TryPopUpTo per round, so the fold into the TrustMatrix happens at a
//     round boundary, never mid-round;
//   - blocking hand-off: the RPC front-end's worker pool
//     (src/rpc/server.h) parks in PopBlocking between requests and takes
//     opportunistic extras with TryPopUpTo to batch work against one
//     epoch snapshot.
//
// Close() wakes every parked consumer for shutdown; items still queued at
// Close remain poppable so accepted work is never silently dropped.
//
// A mutex-protected deque is deliberately chosen over a lock-free list:
// every critical section is O(1) per item, consumers take items in
// O(batch), and the simple implementation is trivially TSan-clean.
//
// Capability contract (machine-checked via -Wthread-safety): items_,
// closed_ and the counters are DGT_GUARDED_BY(mu_); cv_ hand-offs happen
// with mu_ held (predicates assert the capability) and notifications are
// issued after release, so no method ever blocks while holding the lock.

#ifndef DGT_COMMON_MPSC_QUEUE_H_
#define DGT_COMMON_MPSC_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace dgt {

template <typename T>
class BoundedWorkQueue {
 public:
  // capacity 0 is bumped to 1 (a zero-capacity queue would reject every
  // push and turn the backpressure signal into a constant).
  explicit BoundedWorkQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedWorkQueue(const BoundedWorkQueue&) = delete;
  BoundedWorkQueue& operator=(const BoundedWorkQueue&) = delete;

  // Producer side. False (counted) when full or closed — the caller owns
  // the retry policy or the backpressure reply.
  bool TryPush(T value) DGT_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        ++rejected_;
        return false;
      }
      items_.push_back(std::move(value));
      if (items_.size() > peak_depth_) peak_depth_ = items_.size();
    }
    cv_.notify_one();
    return true;
  }

  // Consumer side: blocks until an item is available or the queue is
  // closed. Returns false only when closed and drained.
  bool PopBlocking(T* out) DGT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cv_.wait(lock.native(), [this] {
      mu_.AssertHeld();  // CV predicates run with the lock held
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  // Non-blocking take of up to max_items (FIFO order, so each producer's
  // items keep their push order; appended to *out). Returns the number
  // taken. An unlimited max_items drains the queue.
  size_t TryPopUpTo(size_t max_items, std::vector<T>* out) DGT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t taken = 0;
    while (taken < max_items && !items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    return taken;
  }

  // Rejects future pushes and wakes every parked consumer. Idempotent.
  void Close() DGT_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const DGT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  size_t size() const DGT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  // TryPush calls that returned false since construction (backpressure
  // observability for the owners' stats).
  uint64_t rejected() const DGT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rejected_;
  }

  // High-water mark of size() since construction — how close the queue
  // came to its backpressure threshold (surfaced as a gauge by owners).
  size_t peak_depth() const DGT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return peak_depth_;
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_ DGT_GUARDED_BY(mu_);
  bool closed_ DGT_GUARDED_BY(mu_) = false;
  uint64_t rejected_ DGT_GUARDED_BY(mu_) = 0;
  size_t peak_depth_ DGT_GUARDED_BY(mu_) = 0;
};

}  // namespace dgt

#endif  // DGT_COMMON_MPSC_QUEUE_H_
