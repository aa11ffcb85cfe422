// RoundDriver: the write side of the serving layer. It owns one
// background thread that repeatedly (a) drains the bounded MPSC
// trust-update queue and folds the updates into the TrustMatrix — so the
// matrix only ever changes at a round boundary, exactly the "simulation
// mutates it in between" contract ReputationSystem was built for —
// (b) runs one full GCLR aggregation round via
// ReputationSystem::RunRound(), which applies the paper's Delta re-push
// gating and runs the gossip on the engines' ThreadPool
// (GossipOptions::num_threads), and (c) publishes the round's scores to
// the ReputationStore as an immutable epoch-numbered snapshot.
//
// In paced mode an EpochGate synchronises the driver with a fixed set of
// registered readers: the driver publishes epoch e, then waits until
// every reader has acknowledged e before starting round e + 1. That is
// what gives the "every epoch observed exactly once per reader, in
// order" guarantee the consistency stress test asserts; free-running
// mode skips the gate and rounds proceed as fast as aggregation allows.

#ifndef DGT_SERVE_ROUND_DRIVER_H_
#define DGT_SERVE_ROUND_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/epoch_gate.h"
#include "common/mpsc_queue.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "reputation/reputation_system.h"
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

struct RoundDriverOptions {
  // Rounds to run before finishing; 0 = free-run until Stop().
  uint32_t num_rounds = 0;
  // Gate each published epoch on reader acknowledgements (requires a
  // non-null EpochGate with all readers registered before Start).
  bool paced = false;
  // Optional registry instruments the driver reports into (wired by
  // ReputationService; null pointers are skipped). The counters are
  // deterministic per workload — epochs published and updates folded are
  // exactly the driver's own rounds_completed()/updates_folded() — which
  // is what lets the loadgen hard-gate them end-to-end.
  obs::Counter* epochs_published_counter = nullptr;
  obs::Counter* updates_folded_counter = nullptr;
  // Wall time of each round-boundary fold (drain + TrustMatrix writes).
  obs::LatencyHistogram* fold_us_histogram = nullptr;
};

class RoundDriver {
 public:
  // All pointers are borrowed and must outlive the driver. `gate` may be
  // null when options.paced is false. The driver thread is the only
  // mutator of `trust` and the only caller into `system` while running.
  RoundDriver(ReputationSystem* system, TrustMatrix* trust,
              ReputationStore* store, EpochGate* gate,
              BoundedWorkQueue<TrustUpdate>* updates,
              RoundDriverOptions options);
  ~RoundDriver();

  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  // Spawns the driver thread. FailedPrecondition if already started or
  // if paced without a gate.
  Status Start() DGT_EXCLUDES(mu_);

  // Requests shutdown (cancelling the gate so nobody blocks) and joins.
  // Idempotent; safe after natural completion.
  void Stop() DGT_EXCLUDES(mu_);

  // Blocks until the driver thread finishes its fixed round budget (or
  // is stopped). With num_rounds == 0 this only returns after Stop().
  void Join() DGT_EXCLUDES(mu_);

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // First error RunRound returned, if any (the driver stops on error).
  Status last_status() const DGT_EXCLUDES(mu_);

  uint64_t rounds_completed() const {
    return rounds_completed_.load(std::memory_order_acquire);
  }
  uint64_t updates_folded() const {
    return updates_folded_.load(std::memory_order_acquire);
  }
  // steady_clock microseconds of the most recent snapshot publish; 0
  // before the first. Feeds the serve_snapshot_age_us callback gauge.
  int64_t last_publish_micros() const {
    return last_publish_us_.load(std::memory_order_relaxed);
  }

 private:
  void DriveLoop() DGT_EXCLUDES(mu_);
  // Drains the update queue into the trust matrix; returns #folded.
  uint64_t FoldPendingUpdates();

  ReputationSystem* system_;
  TrustMatrix* trust_;
  ReputationStore* store_;
  EpochGate* gate_;
  BoundedWorkQueue<TrustUpdate>* updates_;
  RoundDriverOptions options_;

  // The driver thread itself is deliberately not lock-annotated: it is
  // written exactly once (under mu_, in Start) and only ever joined under
  // join_mu_, so annotating it with either capability would overstate the
  // protocol. Raw std::thread is the point of this class — it IS the
  // background-thread owner the rest of the serving layer builds on.
  std::thread thread_;  // dgt-lint: raw-thread-ok(RoundDriver owns the serving layer's driver thread)
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> finished_{false};
  std::atomic<uint64_t> rounds_completed_{0};
  std::atomic<uint64_t> updates_folded_{0};
  std::atomic<int64_t> last_publish_us_{0};

  mutable Mutex mu_;
  Mutex join_mu_;  // serialises Join; never taken by the driver thread
  bool started_ DGT_GUARDED_BY(mu_) = false;
  bool joined_ DGT_GUARDED_BY(mu_) = false;
  Status last_status_ DGT_GUARDED_BY(mu_);
  std::vector<TrustUpdate> drain_buffer_;  // driver-thread only
};

}  // namespace dgt

#endif  // DGT_SERVE_ROUND_DRIVER_H_
