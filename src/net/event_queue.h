// Deterministic discrete-event simulation core: a priority queue of timed
// events. Ties are broken by insertion order, so runs are exactly
// reproducible.
//
// The synchronous engines in src/gossip assume the paper's "time is
// discrete" idealisation; the net/ substrate relaxes it to message-level
// asynchrony over the paper's section-3 link model (access link +
// backbone + access link).

#ifndef DGT_NET_EVENT_QUEUE_H_
#define DGT_NET_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace dgt {

// Min-heap of (time, seq, payload) with a guaranteed total order: earlier
// time first, and equal-time items pop in push order via the seq
// tie-break, independent of heap internals. The parallel async engine
// depends on this seq both for stability and as the canonical commit
// order within a lookahead window. It carries a typed payload instead of a
// callback so batches of events can be extracted, partitioned by owner,
// and executed across a thread pool.
template <typename Payload>
class TimedEventHeap {
 public:
  struct Item {
    double time;
    uint64_t seq;
    Payload payload;
  };

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Timestamp of the earliest item, or +infinity when empty.
  double NextTime() const {
    if (heap_.empty()) return std::numeric_limits<double>::infinity();
    return heap_.front().time;
  }

  // Returns the seq assigned to this item. Seqs increase monotonically
  // with pushes, so equal-time items pop first-pushed-first.
  uint64_t Push(double time, Payload payload) {
    uint64_t seq = next_seq_++;
    heap_.push_back(Item{time, seq, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later());
    return seq;
  }

  // Precondition: !empty().
  Item Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    Item item = std::move(heap_.back());
    heap_.pop_back();
    return item;
  }

  // Replaces *window with the earliest item and every further item with
  // time < horizon, in (time, seq) order. This is the lookahead-window
  // extraction: with horizon = NextTime() + L_min (L_min the link-latency
  // lower bound), none of the returned events can schedule new events
  // inside the window, so the batch is safe to execute in parallel. Once
  // times are so large that NextTime() + L_min rounds to NextTime(), the
  // window is the earliest item alone, which is trivially safe.
  void PopWindow(double horizon, std::vector<Item>* window) {
    window->clear();
    while (!heap_.empty() &&
           (window->empty() || heap_.front().time < horizon)) {
      window->push_back(Pop());
    }
  }

 private:
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Item> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace dgt

#endif  // DGT_NET_EVENT_QUEUE_H_
