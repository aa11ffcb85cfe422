// RpcServer: the networked front-end of the serving layer. It puts a
// real transport in front of a ReputationService so the ~600k q/s
// in-process number becomes an honest serving benchmark, and it is the
// prerequisite for multi-process scaling (sharding, replication,
// restartable service).
//
// Pipeline (one box per thread role):
//
//   accept thread ──► per-connection reader threads
//                         │  ReadFrame + DecodeFrame (wire.h)
//                         │  decode error  → ErrorReply from the reader
//                         │  queue full    → Backpressure ErrorReply
//                         ▼
//                bounded BoundedWorkQueue<Request>     (admission control)
//                         │  condition-variable hand-off
//                         ▼
//                worker pool: PopBlocking + TryPopUpTo(max_batch - 1)
//                         │  pin ONE snapshot per drained batch
//                         │  answer queries via serve/query.h free fns
//                         │  forward updates to SubmitTrustUpdate/Erase
//                         ▼
//                per-connection write mutex → WriteFrame replies
//
// Consistency guarantee seen by a network client: every query reply is
// computed against exactly one immutable epoch snapshot (RCU pin), and
// all queries drained into the same worker batch share that snapshot —
// so replies within a batch can never mix epochs, and a client's epochs
// are monotone per connection ordering only to the extent the store's
// are (see docs/SERVING.md, "Epoch consistency over the wire").
//
// Error discipline: kMalformedFrame / kVersionMismatch are answered and
// then the connection is closed (framing can no longer be trusted);
// every other error leaves the connection usable. Requests already in
// the queue at Stop() are drained before the workers exit, so accepted
// work is answered or the connection is gone — never silently dropped.
//
// The listener binds 127.0.0.1 only; the protocol carries no
// authentication, the trust boundary is the host.

#ifndef DGT_RPC_SERVER_H_
#define DGT_RPC_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "rpc/frame_io.h"
#include "rpc/wire.h"
#include "serve/service.h"

namespace dgt {
namespace rpc {

struct RpcServerOptions {
  // TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  // port() after Start — the tests' and self-hosted loadgen's mode).
  uint16_t port = 0;

  // Worker threads draining the request queue; 0 = one per hardware
  // core. Clamped to hardware concurrency with a logged note
  // (ClampThreadsToHardware), like the service's gossip workers.
  uint32_t worker_threads = 0;

  // Bounded request-queue capacity. A full queue rejects the request
  // with a Backpressure error reply — admission control instead of
  // unbounded buffering; see requests_rejected().
  size_t request_queue_capacity = 1024;

  // Max requests a worker drains (and answers against one pinned epoch
  // snapshot) per hand-off. Batching amortises the snapshot pin and
  // keeps a batch's replies epoch-consistent.
  uint32_t max_batch = 32;

  // Test hook: workers start parked until ReleaseWorkers(), so the
  // bounded queue's admission control can be exercised deterministically
  // (tests/rpc/server_test.cc).
  bool hold_workers = false;

  // Registry the server instruments into (and serves over kStatsRequest);
  // null uses the process-wide obs::MetricsRegistry::Global(). Tests pass
  // their own for isolation.
  obs::MetricsRegistry* metrics = nullptr;
};

class RpcServer {
 public:
  // `service` is borrowed and must outlive the server. The service does
  // not need to be started: queries before its first epoch are answered
  // with NotReady, which is also the honest answer while round 1 runs.
  RpcServer(ReputationService* service, RpcServerOptions options);
  ~RpcServer();  // Stop()

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // Binds, listens, spawns the accept thread and the worker pool.
  // IoError if the port is taken; FailedPrecondition if already started.
  Status Start();

  // Closes the listener and every connection, drains the queue, joins
  // all threads. Idempotent.
  void Stop() DGT_EXCLUDES(conns_mu_, hold_mu_);

  // The bound port (after Start).
  uint16_t port() const { return port_; }

  // Unparks workers started with options.hold_workers.
  void ReleaseWorkers() DGT_EXCLUDES(hold_mu_);

  // --- observability ---
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  // Requests admitted into the queue / rejected with Backpressure.
  uint64_t requests_enqueued() const {
    return requests_enqueued_.load(std::memory_order_relaxed);
  }
  uint64_t requests_rejected() const { return queue_.rejected(); }
  uint64_t replies_sent() const {
    return replies_sent_.load(std::memory_order_relaxed);
  }
  // Error replies among replies_sent (any WireError, Backpressure incl.).
  uint64_t error_replies_sent() const {
    return error_replies_sent_.load(std::memory_order_relaxed);
  }
  // Frames answered with MalformedFrame or VersionMismatch (connection
  // closed after).
  uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }
  // Worker batch drains, and the largest batch observed — batches/size
  // quantify how much snapshot-pin amortisation the load achieved.
  uint64_t batches_drained() const {
    return batches_drained_.load(std::memory_order_relaxed);
  }
  uint64_t max_batch_observed() const {
    return max_batch_observed_.load(std::memory_order_relaxed);
  }
  uint32_t worker_threads() const { return options_.worker_threads; }

 private:
  // A live client connection, shared between its reader thread and any
  // worker holding one of its requests. The write mutex serialises reply
  // frames; the fd is shutdown (not closed) on teardown so late replies
  // fail harmlessly instead of racing a recycled descriptor. `fd` is
  // deliberately NOT guarded by write_mu: the reader thread and Stop()
  // call ShutdownBothEnds without it, which is exactly the "shutdown,
  // never close, while shared" protocol above — annotating it would
  // force the teardown paths to take a lock they must not block on.
  struct Connection {
    UniqueFd fd;
    Mutex write_mu;
    std::atomic<bool> open{true};
    // Set by the reader thread as its last act, so the accept thread can
    // join it without blocking.
    std::atomic<bool> reader_done{false};
  };

  // A connection and the thread reading it. Dropping the entry releases
  // one reference; the fd closes when the last holder (this entry, the
  // reader, or a queued Request) lets go.
  struct Reader {
    std::shared_ptr<Connection> conn;
    // dgt-lint: raw-thread-ok(RpcServer owns the per-connection readers)
    std::thread thread;
  };

  struct Request {
    std::shared_ptr<Connection> conn;
    uint64_t request_id = 0;
    MessageBody body;
  };

  void AcceptLoop() DGT_EXCLUDES(conns_mu_);
  // Joins and drops the readers whose connection has ended, so a
  // long-lived server holds one fd and one thread per *open* connection.
  void ReapFinishedReaders() DGT_REQUIRES(conns_mu_);
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop() DGT_EXCLUDES(hold_mu_);
  // Times DispatchRequest into the per-op service-latency histogram.
  void ProcessRequest(const Request& req,
                      const std::shared_ptr<const ReputationSnapshot>& snap);
  void DispatchRequest(const Request& req,
                       const std::shared_ptr<const ReputationSnapshot>& snap);
  void SendReply(const std::shared_ptr<Connection>& conn,
                 const std::vector<uint8_t>& payload, bool is_error);
  // Encodes + sends an error reply, counting it under the per-error-code
  // counter (rpc_errors_*). Every error path funnels through here so the
  // wire counters and the loadgen's client-side accounting can be
  // compared exactly.
  void SendError(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                 WireError error, const std::string& message);

  // Number of request message types (ids 1..kNumRequestTypes) and of
  // WireError codes past kOk — sizes of the counter arrays below.
  static constexpr size_t kNumRequestTypes = 6;
  static constexpr size_t kNumErrorCodes = 10;

  ReputationService* service_;
  RpcServerOptions options_;
  uint16_t port_ = 0;

  // Wire-visible instruments (registered at construction; the registry
  // owns them, so raw pointers are safe for the server's lifetime).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* requests_by_type_[kNumRequestTypes] = {};
  obs::Counter* errors_by_code_[kNumErrorCodes] = {};
  obs::LatencyHistogram* service_latency_[kNumRequestTypes] = {};
  obs::LatencyHistogram* batch_size_hist_ = nullptr;
  obs::Counter* connections_counter_ = nullptr;
  uint64_t queue_depth_token_ = 0;
  uint64_t queue_peak_token_ = 0;
  uint64_t queue_rejected_token_ = 0;

  UniqueFd listen_fd_;
  // The RPC front-end owns its thread topology directly (accept thread,
  // per-connection readers, worker pool) — see the pipeline diagram in
  // the file comment.
  std::thread accept_thread_;  // dgt-lint: raw-thread-ok(RpcServer owns the accept thread)
  std::vector<std::thread> workers_;  // dgt-lint: raw-thread-ok(RpcServer owns its worker pool)
  BoundedWorkQueue<Request> queue_;

  Mutex conns_mu_;
  std::vector<Reader> readers_ DGT_GUARDED_BY(conns_mu_);

  Mutex hold_mu_;
  std::condition_variable hold_cv_;
  bool workers_held_ DGT_GUARDED_BY(hold_mu_) = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_enqueued_{0};
  std::atomic<uint64_t> replies_sent_{0};
  std::atomic<uint64_t> error_replies_sent_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> batches_drained_{0};
  std::atomic<uint64_t> max_batch_observed_{0};
};

}  // namespace rpc
}  // namespace dgt

#endif  // DGT_RPC_SERVER_H_
