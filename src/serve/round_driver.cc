#include "serve/round_driver.h"

#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <utility>

namespace dgt {

namespace {

int64_t SteadyNowMicros() {
  // dgt-lint: raw-time-ok(observability-only timestamps; never feed scores)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             now.time_since_epoch())
      .count();
}

}  // namespace

RoundDriver::RoundDriver(ReputationSystem* system, TrustMatrix* trust,
                         ReputationStore* store, EpochGate* gate,
                         BoundedWorkQueue<TrustUpdate>* updates,
                         RoundDriverOptions options)
    : system_(system),
      trust_(trust),
      store_(store),
      gate_(gate),
      updates_(updates),
      options_(options) {
  assert(system_ != nullptr && trust_ != nullptr && store_ != nullptr &&
         updates_ != nullptr);
}

RoundDriver::~RoundDriver() { Stop(); }

Status RoundDriver::Start() {
  MutexLock lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("round driver already started");
  }
  if (options_.paced && gate_ == nullptr) {
    return Status::FailedPrecondition("paced mode requires an epoch gate");
  }
  started_ = true;
  // dgt-lint: raw-thread-ok(RoundDriver owns the serving layer's driver thread)
  thread_ = std::thread([this] { DriveLoop(); });
  return Status::OK();
}

void RoundDriver::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (gate_ != nullptr) gate_->Cancel();
  Join();
}

void RoundDriver::Join() {
  // join_mu_ serialises joiners and is never taken by the driver thread,
  // so holding it across join() cannot deadlock against DriveLoop's use
  // of mu_ (e.g. when recording last_status_).
  MutexLock join_lock(join_mu_);
  {
    MutexLock lock(mu_);
    if (!started_ || joined_) return;
  }
  thread_.join();
  MutexLock lock(mu_);
  joined_ = true;
}

Status RoundDriver::last_status() const {
  MutexLock lock(mu_);
  return last_status_;
}

uint64_t RoundDriver::FoldPendingUpdates() {
  drain_buffer_.clear();
  updates_->TryPopUpTo(std::numeric_limits<size_t>::max(), &drain_buffer_);
  for (const TrustUpdate& update : drain_buffer_) {
    if (update.erase) {
      trust_->Erase(update.observer, update.target);
      continue;
    }
    // Updates were validated at submit time; Set can only fail on inputs
    // that bypassed SubmitTrustUpdate, which we surface loudly in debug
    // builds and skip in release.
    Status s = trust_->Set(update.observer, update.target, update.value);
    assert(s.ok());
    (void)s;
  }
  return drain_buffer_.size();
}

void RoundDriver::DriveLoop() {
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
    if (options_.fold_us_histogram != nullptr) {
      options_.fold_us_histogram->Record(
          static_cast<uint64_t>(SteadyNowMicros() - fold_start_us));
    }
    if (options_.updates_folded_counter != nullptr && folded > 0) {
      options_.updates_folded_counter->Increment(folded);
    }

    // (b) One full aggregation round (Delta gating + GCLR gossip).
    Status s = system_->RunRound();
    if (!s.ok()) {
      MutexLock lock(mu_);
      last_status_ = std::move(s);
      break;
    }

    // (c) Publish the round as an immutable snapshot.
    auto snapshot = std::make_shared<ReputationSnapshot>();
    snapshot->epoch = system_->rounds_completed();
    snapshot->scores = system_->reputations();  // copy; system keeps state
    snapshot->round_stats = system_->last_round_stats();
    snapshot->trust_updates_folded = folded_total;
    snapshot->feedback_pushes = system_->last_round_feedback_pushes();
    const uint64_t epoch = snapshot->epoch;
    store_->Publish(std::move(snapshot));
    rounds_completed_.store(epoch, std::memory_order_release);
    last_publish_us_.store(SteadyNowMicros(), std::memory_order_relaxed);
    if (options_.epochs_published_counter != nullptr) {
      options_.epochs_published_counter->Increment();
    }

    // (d) Paced mode: wait for every reader to consume this epoch before
    // the next round starts. AwaitAllAcked returning false means the
    // gate was cancelled (shutdown) — but only after readers had the
    // chance to drain the epoch published above.
    if (options_.paced) {
      gate_->Publish(epoch);
      if (!gate_->AwaitAllAcked(epoch)) break;
    }
  }
  // Natural completion: release any reader still waiting for a further
  // epoch. (On Stop() the gate is already cancelled.) By this point every
  // registered reader has acked the final epoch, so none can miss one.
  if (gate_ != nullptr) gate_->Cancel();
  finished_.store(true, std::memory_order_release);
}

}  // namespace dgt
