// ReputationService: the long-lived serving facade the paper's observers
// would actually talk to. It owns the evolving trust state, a background
// RoundDriver that turns that state into epoch-numbered reputation
// snapshots (one per aggregation round, Delta re-push gating included),
// and a sharded RCU-style ReputationStore that answers point, batch and
// top-k queries against the latest snapshot without readers ever taking
// a lock. Trust observations stream in through a bounded MPSC queue and
// are folded into the TrustMatrix only at round boundaries, so a round
// always aggregates one coherent matrix and the served scores of epoch e
// are bit-identical to a batch ReputationSystem run fed the same
// update sequence (asserted by tests/serve/snapshot_consistency_test.cc).
//
// Threading contract:
//   - Query*, Snapshot(), SubmitTrustUpdate and the stats accessors are
//     safe from any thread while the service runs.
//   - Start/Stop/AwaitCompletion are for the owning thread.
//   - Paced mode (options.paced): register every reader before Start,
//     then each reader loops { AwaitEpochAfter, query, AckEpoch } and is
//     guaranteed to observe every epoch exactly once, in order.
// The requested gossip worker count is clamped to the machine's hardware
// concurrency (with a logged note), so over-provisioned configs degrade
// to fewer workers instead of oversubscribing a small container.

#ifndef DGT_SERVE_SERVICE_H_
#define DGT_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/epoch_gate.h"
#include "common/mpsc_queue.h"
#include "common/result.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "reputation/reputation_system.h"
#include "serve/query.h"
#include "serve/reputation_store.h"
#include "serve/round_driver.h"
#include "trust/trust_matrix.h"

namespace dgt {

struct ReputationServiceOptions {
  // Round configuration (aggregation variant 4 options, Delta re-push
  // threshold, per-round seed base). gossip.num_threads sizes both the
  // aggregation worker pool and — unless read_shards overrides it — the
  // store's read-path sharding; it is clamped to hardware concurrency.
  ReputationSystemOptions system;

  // Rounds to run before the driver finishes; 0 = free-run until Stop().
  uint32_t num_rounds = 0;

  // Gate every epoch on acknowledgements from registered readers (see
  // class comment). Free-running mode never blocks the driver.
  bool paced = false;

  // Read-path shards for the snapshot store; 0 derives it from the
  // clamped gossip worker count.
  uint32_t read_shards = 0;

  // Capacity of the trust-update ingest queue; submissions beyond it are
  // rejected with explicit backpressure until the next round drains it.
  size_t update_queue_capacity = 4096;

  // Registry the service instruments into (serve_* metrics: epochs
  // published, updates folded, fold wall-time, ingest-queue gauges,
  // served-snapshot age); null uses obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

class ReputationService {
 public:
  // `graph` is borrowed and must outlive the service; the trust state is
  // taken by value — the service owns its evolution from here on.
  ReputationService(const Graph* graph, TrustMatrix initial_trust,
                    ReputationServiceOptions options);
  ~ReputationService();  // stops the driver

  ReputationService(const ReputationService&) = delete;
  ReputationService& operator=(const ReputationService&) = delete;

  // Starts the background round driver. FailedPrecondition if the graph
  // and trust matrix disagree on the node count or already started.
  Status Start();

  // Cancels pacing, stops the driver, joins. Idempotent.
  void Stop();

  // Blocks until the fixed round budget completes (num_rounds > 0). The
  // final snapshot is published before this returns.
  void AwaitCompletion();

  // --- read path (any thread) ---

  // The current snapshot, pinned; nullptr before the first round lands.
  std::shared_ptr<const ReputationSnapshot> Snapshot() const;

  // FailedPrecondition before the first round; otherwise see query.h.
  Result<PointQueryResult> QueryPoint(NodeId observer, NodeId target) const;
  Result<BatchQueryResult> QueryBatch(
      NodeId observer, const std::vector<NodeId>& targets) const;
  Result<TopKQueryResult> QueryTopK(NodeId observer, uint32_t k) const;

  // --- write path (any thread) ---

  // Validates like TrustMatrix::Set (ids in range, i != j, value in
  // [0, 1]) and enqueues; the update takes effect at the next round
  // boundary. FailedPrecondition with a "queue full" message when the
  // bounded queue rejects it (also counted in updates_rejected()).
  Status SubmitTrustUpdate(NodeId observer, NodeId target, double value);

  // Enqueues a retraction of observer's opinion about target ("no
  // opinion", distinct from an explicit 0), applied at the next round
  // boundary like SubmitTrustUpdate. Retracting an absent opinion is a
  // harmless no-op at fold time.
  Status SubmitTrustErase(NodeId observer, NodeId target);

  // --- paced-reader protocol (options.paced only) ---

  // Register before Start(); returns the reader id for AckEpoch.
  uint32_t RegisterReader();
  // Blocks until an epoch newer than last_seen is published and returns
  // it; 0 once the service is done and no unseen epoch remains.
  uint64_t AwaitEpochAfter(uint64_t last_seen);
  void AckEpoch(uint32_t reader_id, uint64_t epoch);

  // --- observability ---

  uint64_t epoch() const { return store_.epoch(); }
  uint64_t rounds_completed() const { return driver_.rounds_completed(); }
  uint64_t updates_folded() const { return driver_.updates_folded(); }
  uint64_t updates_rejected() const { return update_queue_.rejected(); }
  bool finished() const { return driver_.finished(); }
  // First round error, if any (the driver stops on it).
  Status driver_status() const { return driver_.last_status(); }
  // Post-clamp gossip worker count actually in use.
  uint32_t worker_threads() const {
    return options_.system.aggregation.gossip.num_threads;
  }
  uint32_t read_shards() const { return store_.num_read_shards(); }
  const Graph& graph() const { return *graph_; }

 private:
  RoundDriverOptions MakeDriverOptions();

  const Graph* graph_;
  TrustMatrix trust_;
  ReputationServiceOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;

  ReputationSystem system_;
  ReputationStore store_;
  EpochGate gate_;
  BoundedWorkQueue<TrustUpdate> update_queue_;
  RoundDriver driver_;

  // Callback-gauge tokens (queue depth/peak/rejected + snapshot age);
  // registered on Start, removed on Stop before the sampled state dies.
  uint64_t queue_depth_token_ = 0;
  uint64_t queue_peak_token_ = 0;
  uint64_t queue_rejected_token_ = 0;
  uint64_t snapshot_age_token_ = 0;
};

}  // namespace dgt

#endif  // DGT_SERVE_SERVICE_H_
