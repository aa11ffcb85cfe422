// ReputationSnapshot + ReputationStore: the read side of the serving
// layer. Each completed aggregation round is published as one immutable,
// epoch-numbered snapshot; queries run against whichever snapshot they
// acquire and therefore always see the scores of exactly one round —
// torn reads across rounds are impossible by construction.
//
// Publication is an RCU-style shared_ptr swap: the single writer (the
// service's round thread) atomically installs the new snapshot, readers
// atomically load it and pin it with shared ownership for the duration
// of the query; the previous round's snapshot is reclaimed when its last
// reader drops it. Readers never take the writer's lock — there is no
// writer lock.
// (C++17's free-function atomic shared_ptr ops are implemented by
// libstdc++ with a tiny spinlock pool; the per-thread slot sharding below
// keeps those uncontended, and TSan sees through them.)
//
// The store holds `num_read_shards` cache-line-separated copies of the
// current pointer, sized by the service from GossipOptions::num_threads.
// A reader thread is pinned to one slot (thread-local assignment), so
// reader traffic on different shards never bounces the same cache line,
// and — because successive loads of a single atomic location cannot go
// backwards in its modification order — each reader observes epochs in
// monotonically non-decreasing order.
//
// Thread-safety analysis note: this class is deliberately mutex-free, so
// it carries no capability annotations (common/thread_annotations.h has
// nothing to check here). Its correctness rests on the atomic shared_ptr
// protocol above and is machine-checked by the TSan CI leg plus the
// snapshot-consistency stress test, not by -Wthread-safety.

#ifndef DGT_SERVE_REPUTATION_STORE_H_
#define DGT_SERVE_REPUTATION_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "reputation/aggregation.h"

namespace dgt {

// Immutable after publication. epoch is the 1-based index of the
// aggregation round that produced it (matching
// ReputationSystem::rounds_completed()).
struct ReputationSnapshot {
  uint64_t epoch = 0;
  // scores[i][j] = observer i's globally calibrated view of node j
  // (variant 4 output of the round).
  std::vector<std::vector<double>> scores;
  // The gossip statistics of the round that produced this snapshot.
  GossipRunStats round_stats;
  // Trust updates folded into the TrustMatrix across all rounds up to and
  // including this one, and Delta-rule feedback pushes at this round's
  // boundary (diagnostics; see ReputationSystem).
  uint64_t trust_updates_folded = 0;
  uint64_t feedback_pushes = 0;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(scores.size());
  }
};

class ReputationStore {
 public:
  // num_read_shards is clamped to at least 1.
  explicit ReputationStore(uint32_t num_read_shards);

  ReputationStore(const ReputationStore&) = delete;
  ReputationStore& operator=(const ReputationStore&) = delete;

  // Reader side: the current snapshot (pinned — safe to use for as long
  // as the returned pointer lives), or nullptr before the first Publish.
  // Lock-free with respect to the writer; wait-free between readers on
  // different shards.
  std::shared_ptr<const ReputationSnapshot> Acquire() const;

  // Writer side (single writer): installs `snapshot` as the current one
  // on every shard. snapshot->epoch must exceed the previous epoch.
  void Publish(std::shared_ptr<const ReputationSnapshot> snapshot);

  // Latest fully published epoch (0 before the first Publish). A reader
  // that needs the epoch of the data it will actually see should read
  // Acquire()->epoch instead; this accessor is for progress monitoring.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  uint32_t num_read_shards() const {
    return static_cast<uint32_t>(slots_.size());
  }

 private:
  // One pointer per shard, each on its own cache line so reader refcount
  // traffic on different shards never contends.
  struct alignas(64) Slot {
    std::shared_ptr<const ReputationSnapshot> snapshot;
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace dgt

#endif  // DGT_SERVE_REPUTATION_STORE_H_
