// ReputationService: the long-lived serving facade the paper's observers
// would actually talk to. It owns the evolving trust state, a background
// round thread that turns that state into epoch-numbered reputation
// snapshots (one per aggregation round, Delta re-push gating included),
// and a sharded RCU-style ReputationStore that answers point, batch and
// top-k queries against the latest snapshot without readers ever taking
// a lock. Trust observations stream in through a bounded MPSC queue and
// are folded into the TrustMatrix only at round boundaries, so a round
// always aggregates one coherent matrix and the served scores of epoch e
// are bit-identical to a batch ReputationSystem run fed the same
// update sequence (asserted by tests/serve/snapshot_consistency_test.cc).
//
// Each pass of the round thread (a) drains the update queue and folds it
// into the TrustMatrix — the "simulation mutates it in between" contract
// ReputationSystem was built for — (b) runs one full GCLR aggregation
// round via ReputationSystem::RunRound(), which applies the paper's Delta
// re-push gating and runs the gossip on the engines' ThreadPool
// (GossipOptions::num_threads), (c) publishes the round's scores to the
// store as an immutable snapshot, and (d) in paced mode waits until every
// registered reader has acknowledged that epoch before the next round.
// The round thread is the only mutator of the trust matrix and the only
// caller into the ReputationSystem while it runs; it stops on the first
// round error, which driver_status() then reports.
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

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/epoch_gate.h"
#include "common/mpsc_queue.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "reputation/reputation_system.h"
#include "serve/query.h"
#include "serve/reputation_store.h"
#include "trust/trust_matrix.h"

namespace dgt {

// One queued direct-trust observation: observer's new t_ij for target.
// Validated at submit time (see ReputationService::SubmitTrustUpdate).
// `erase` retracts the opinion instead (value ignored) — "no opinion" is
// distinct from an explicit 0 throughout the trust model, and identity
// resets (whitewashing, churn) need to retract rows/columns through the
// same ingest path as ordinary observations.
struct TrustUpdate {
  NodeId observer = 0;
  NodeId target = 0;
  double value = 0.0;
  bool erase = false;
};

struct ReputationServiceOptions {
  // Round configuration (aggregation variant 4 options, Delta re-push
  // threshold, per-round seed base). gossip.num_threads sizes both the
  // aggregation worker pool and — unless read_shards overrides it — the
  // store's read-path sharding; it is clamped to hardware concurrency.
  ReputationSystemOptions system;

  // Rounds to run before the round thread finishes; 0 = free-run until
  // Stop().
  uint32_t num_rounds = 0;

  // Gate every epoch on acknowledgements from registered readers (see
  // class comment). Free-running mode never blocks the round thread.
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
  ~ReputationService();  // stops the round thread

  ReputationService(const ReputationService&) = delete;
  ReputationService& operator=(const ReputationService&) = delete;

  // Starts the background round thread. FailedPrecondition if the graph
  // and trust matrix disagree on the node count or already started.
  Status Start();

  // Cancels pacing, stops the round thread, joins. Idempotent.
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

  // Latest published epoch, which is also the number of rounds completed.
  uint64_t epoch() const { return store_.epoch(); }
  uint64_t updates_folded() const {
    return updates_folded_.load(std::memory_order_acquire);
  }
  uint64_t updates_rejected() const { return update_queue_.rejected(); }
  bool finished() const { return finished_.load(std::memory_order_acquire); }
  // First round error, if any (the round thread stops on it).
  Status driver_status() const DGT_EXCLUDES(mu_);
  // Post-clamp gossip worker count actually in use.
  uint32_t worker_threads() const {
    return options_.system.aggregation.gossip.num_threads;
  }
  uint32_t read_shards() const { return store_.num_read_shards(); }
  const Graph& graph() const { return *graph_; }

 private:
  // The round thread's body: rounds (a)-(d) of the class comment until
  // the budget is spent, Stop() is called or a round fails.
  void RoundLoop() DGT_EXCLUDES(mu_);
  // Drains the update queue into the trust matrix; returns #folded.
  uint64_t FoldPendingUpdates();
  // Validates `update` (ids in range, no self-trust, value in [0, 1]
  // unless it is an erase) and offers it to the queue.
  Status Enqueue(const TrustUpdate& update);

  const Graph* graph_;
  TrustMatrix trust_;
  ReputationServiceOptions options_;
  obs::MetricsRegistry* metrics_;
  // Deterministic per workload — epochs published and updates folded are
  // exactly epoch() and updates_folded() — which is what lets the loadgen
  // hard-gate them end-to-end.
  obs::Counter* epochs_published_counter_;
  obs::Counter* updates_folded_counter_;
  // Wall time of each round-boundary fold (drain + TrustMatrix writes).
  obs::LatencyHistogram* fold_us_histogram_;

  ReputationSystem system_;
  ReputationStore store_;
  EpochGate gate_;
  BoundedWorkQueue<TrustUpdate> update_queue_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> finished_{false};
  std::atomic<uint64_t> updates_folded_{0};
  // steady_clock microseconds of the most recent snapshot publish; 0
  // before the first. Feeds the serve_snapshot_age_us callback gauge.
  std::atomic<int64_t> last_publish_us_{0};
  std::vector<TrustUpdate> drain_buffer_;  // round thread only

  // Guards only last_status_, which driver_status() reads from any thread.
  mutable Mutex mu_;
  Status last_status_ DGT_GUARDED_BY(mu_);

  // Start, Stop and AwaitCompletion run on the owning thread only, so
  // started_ and thread_ need no lock. The thread is declared after
  // everything it uses. Raw std::thread is deliberate: the service is the
  // serving layer's background-thread owner.
  bool started_ = false;
  std::thread thread_;  // dgt-lint: raw-thread-ok(the round thread)

  // Callback-gauge tokens (queue depth/peak/rejected + snapshot age);
  // registered on Start, removed on Stop before the sampled state dies.
  uint64_t queue_depth_token_ = 0;
  uint64_t queue_peak_token_ = 0;
  uint64_t queue_rejected_token_ = 0;
  uint64_t snapshot_age_token_ = 0;
};

}  // namespace dgt

#endif  // DGT_SERVE_SERVICE_H_
