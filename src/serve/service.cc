#include "serve/service.h"

#include <cassert>
#include <chrono>
#include <limits>
#include <utility>

#include "common/thread_pool.h"

namespace dgt {

namespace {

// Clamp the worker request once, before anything consumes it, so the
// aggregation pool and the default read-shard count agree. 0 resolves to
// hardware concurrency (matching ThreadPool's contract).
ReputationServiceOptions ResolveOptions(ReputationServiceOptions options) {
  uint32_t& workers = options.system.aggregation.gossip.num_threads;
  workers = ClampThreadsToHardware(workers, "ReputationService");
  if (options.read_shards == 0) options.read_shards = workers;
  return options;
}

int64_t SteadyNowMicros() {
  // dgt-lint: raw-time-ok(observability-only timestamps; never feed scores)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             now.time_since_epoch())
      .count();
}

}  // namespace

ReputationService::ReputationService(const Graph* graph,
                                     TrustMatrix initial_trust,
                                     ReputationServiceOptions options)
    : graph_(graph),
      trust_(std::move(initial_trust)),
      options_(ResolveOptions(std::move(options))),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::Global()),
      epochs_published_counter_(
          metrics_->GetCounter("serve_epochs_published")),
      updates_folded_counter_(metrics_->GetCounter("serve_updates_folded")),
      fold_us_histogram_(metrics_->GetHistogram("serve_fold_us")),
      system_(graph_, &trust_, options_.system),
      store_(options_.read_shards),
      update_queue_(options_.update_queue_capacity) {}

ReputationService::~ReputationService() { Stop(); }

Status ReputationService::Start() {
  if (graph_->num_nodes() != trust_.num_nodes()) {
    return Status::FailedPrecondition("graph/trust node count mismatch");
  }
  if (started_) {
    return Status::FailedPrecondition("reputation service already started");
  }
  started_ = true;
  // dgt-lint: raw-thread-ok(ReputationService owns the round thread)
  thread_ = std::thread([this] { RoundLoop(); });
  // Sampled at snapshot time; the round thread and queue outlive the
  // gauges (removed in Stop before members are destroyed).
  queue_depth_token_ = metrics_->SetCallbackGauge(
      "serve_update_queue_depth",
      [this] { return static_cast<int64_t>(update_queue_.size()); });
  queue_peak_token_ = metrics_->SetCallbackGauge(
      "serve_update_queue_peak_depth",
      [this] { return static_cast<int64_t>(update_queue_.peak_depth()); });
  queue_rejected_token_ = metrics_->SetCallbackGauge(
      "serve_update_queue_rejected",
      [this] { return static_cast<int64_t>(update_queue_.rejected()); });
  snapshot_age_token_ = metrics_->SetCallbackGauge(
      "serve_snapshot_age_us", [this] {
        const int64_t last = last_publish_us_.load(std::memory_order_relaxed);
        return last == 0 ? int64_t{0} : SteadyNowMicros() - last;
      });
  return Status::OK();
}

void ReputationService::Stop() {
  metrics_->RemoveCallbackGauge("serve_update_queue_depth",
                                queue_depth_token_);
  metrics_->RemoveCallbackGauge("serve_update_queue_peak_depth",
                                queue_peak_token_);
  metrics_->RemoveCallbackGauge("serve_update_queue_rejected",
                                queue_rejected_token_);
  metrics_->RemoveCallbackGauge("serve_snapshot_age_us", snapshot_age_token_);
  stop_requested_.store(true, std::memory_order_release);
  gate_.Cancel();
  AwaitCompletion();
}

void ReputationService::AwaitCompletion() {
  if (thread_.joinable()) thread_.join();
}

Status ReputationService::driver_status() const {
  MutexLock lock(mu_);
  return last_status_;
}

uint64_t ReputationService::FoldPendingUpdates() {
  drain_buffer_.clear();
  update_queue_.TryPopUpTo(std::numeric_limits<size_t>::max(),
                           &drain_buffer_);
  for (const TrustUpdate& update : drain_buffer_) {
    if (update.erase) {
      trust_.Erase(update.observer, update.target);
      continue;
    }
    // Updates were validated at submit time; Set can only fail on inputs
    // that bypassed Enqueue, which we surface loudly in debug builds and
    // skip in release.
    Status s = trust_.Set(update.observer, update.target, update.value);
    assert(s.ok());
    (void)s;
  }
  return drain_buffer_.size();
}

void ReputationService::RoundLoop() {
  uint64_t folded_total = 0;
  for (uint32_t round = 1;
       !stop_requested_.load(std::memory_order_acquire) &&
       (options_.num_rounds == 0 || round <= options_.num_rounds);
       ++round) {
    // (a) Fold updates queued since the last boundary — the matrix is
    // stable for the whole round that follows.
    const int64_t fold_start_us = SteadyNowMicros();
    const uint64_t folded = FoldPendingUpdates();
    folded_total += folded;
    updates_folded_.store(folded_total, std::memory_order_release);
    fold_us_histogram_->Record(
        static_cast<uint64_t>(SteadyNowMicros() - fold_start_us));
    if (folded > 0) updates_folded_counter_->Increment(folded);

    // (b) One full aggregation round (Delta gating + GCLR gossip).
    Status s = system_.RunRound();
    if (!s.ok()) {
      MutexLock lock(mu_);
      last_status_ = std::move(s);
      break;
    }

    // (c) Publish the round as an immutable snapshot.
    auto snapshot = std::make_shared<ReputationSnapshot>();
    snapshot->epoch = system_.rounds_completed();
    snapshot->scores = system_.reputations();  // copy; system keeps state
    snapshot->round_stats = system_.last_round_stats();
    snapshot->trust_updates_folded = folded_total;
    snapshot->feedback_pushes = system_.last_round_feedback_pushes();
    const uint64_t epoch = snapshot->epoch;
    store_.Publish(std::move(snapshot));
    last_publish_us_.store(SteadyNowMicros(), std::memory_order_relaxed);
    epochs_published_counter_->Increment();

    // (d) Paced mode: wait for every reader to consume this epoch before
    // the next round starts. AwaitAllAcked returning false means the
    // gate was cancelled (shutdown) — but only after readers had the
    // chance to drain the epoch published above.
    if (options_.paced) {
      gate_.Publish(epoch);
      if (!gate_.AwaitAllAcked(epoch)) break;
    }
  }
  // Natural completion: release any reader still waiting for a further
  // epoch. (On Stop() the gate is already cancelled.) By this point every
  // registered reader has acked the final epoch, so none can miss one.
  gate_.Cancel();
  finished_.store(true, std::memory_order_release);
}

std::shared_ptr<const ReputationSnapshot> ReputationService::Snapshot()
    const {
  return store_.Acquire();
}

namespace {

Status NoSnapshotYet() {
  return Status::FailedPrecondition(
      "no reputation snapshot published yet; wait for the first "
      "aggregation round");
}

}  // namespace

Result<PointQueryResult> ReputationService::QueryPoint(NodeId observer,
                                                       NodeId target) const {
  std::shared_ptr<const ReputationSnapshot> snapshot = store_.Acquire();
  if (snapshot == nullptr) return NoSnapshotYet();
  return PointQuery(*snapshot, observer, target);
}

Result<BatchQueryResult> ReputationService::QueryBatch(
    NodeId observer, const std::vector<NodeId>& targets) const {
  std::shared_ptr<const ReputationSnapshot> snapshot = store_.Acquire();
  if (snapshot == nullptr) return NoSnapshotYet();
  return BatchQuery(*snapshot, observer, targets);
}

Result<TopKQueryResult> ReputationService::QueryTopK(NodeId observer,
                                                     uint32_t k) const {
  std::shared_ptr<const ReputationSnapshot> snapshot = store_.Acquire();
  if (snapshot == nullptr) return NoSnapshotYet();
  return TopKQuery(*snapshot, observer, k);
}

Status ReputationService::SubmitTrustUpdate(NodeId observer, NodeId target,
                                            double value) {
  return Enqueue(TrustUpdate{observer, target, value});
}

Status ReputationService::SubmitTrustErase(NodeId observer, NodeId target) {
  return Enqueue(TrustUpdate{observer, target, 0.0, /*erase=*/true});
}

Status ReputationService::Enqueue(const TrustUpdate& update) {
  const uint32_t n = trust_.num_nodes();
  if (update.observer >= n || update.target >= n) {
    return Status::OutOfRange("trust update ids out of range");
  }
  if (update.observer == update.target) {
    return Status::InvalidArgument("self-trust is not modelled");
  }
  if (!update.erase && !(update.value >= 0.0 && update.value <= 1.0)) {
    return Status::InvalidArgument("trust values lie in [0, 1]");
  }
  if (!update_queue_.TryPush(update)) {
    return Status::FailedPrecondition(
        "trust-update queue full; the next round boundary drains it");
  }
  return Status::OK();
}

uint32_t ReputationService::RegisterReader() {
  return gate_.RegisterReader();
}

uint64_t ReputationService::AwaitEpochAfter(uint64_t last_seen) {
  return gate_.AwaitNewer(last_seen);
}

void ReputationService::AckEpoch(uint32_t reader_id, uint64_t epoch) {
  gate_.Ack(reader_id, epoch);
}

}  // namespace dgt
