#include "rpc/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/thread_pool.h"
#include "serve/query.h"

namespace dgt {
namespace rpc {
namespace {

// Max requests a worker drains (and answers against one pinned epoch
// snapshot) per hand-off. Batching amortises the snapshot pin and keeps
// a batch's replies epoch-consistent.
constexpr size_t kMaxBatch = 32;

WireError WireErrorFromStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kOutOfRange:
      return WireError::kOutOfRange;
    case StatusCode::kFailedPrecondition:
      return WireError::kNotReady;
    default:
      return WireError::kInternal;
  }
}

// Registry-name stems for request types 1..6 and error codes 1..10, in
// enum order (docs/SERVING.md metric table).
constexpr const char* kRequestMetricNames[] = {
    "point_query", "batch_query", "topk_query", "trust_update", "ping",
    "stats"};
constexpr const char* kErrorMetricNames[] = {
    "backpressure",    "invalid_argument", "out_of_range",
    "not_ready",       "update_rejected",  "malformed_frame",
    "version_mismatch", "unknown_type",    "shutting_down",
    "internal"};

}  // namespace

RpcServer::RpcServer(ReputationService* service, RpcServerOptions options)
    : service_(service),
      options_(options),
      queue_(options.request_queue_capacity) {
  options_.worker_threads =
      ClampThreadsToHardware(options_.worker_threads, "rpc worker pool");
  workers_held_ = options_.hold_workers;
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::MetricsRegistry::Global();
  static_assert(sizeof(kRequestMetricNames) / sizeof(kRequestMetricNames[0]) ==
                kNumRequestTypes);
  static_assert(sizeof(kErrorMetricNames) / sizeof(kErrorMetricNames[0]) ==
                kNumErrorCodes);
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    const std::string stem = kRequestMetricNames[i];
    requests_by_type_[i] = metrics_->GetCounter("rpc_requests_" + stem);
    service_latency_[i] = metrics_->GetHistogram("rpc_service_" + stem + "_us");
  }
  for (size_t i = 0; i < kNumErrorCodes; ++i) {
    errors_by_code_[i] =
        metrics_->GetCounter(std::string("rpc_errors_") + kErrorMetricNames[i]);
  }
  batch_size_hist_ = metrics_->GetHistogram("rpc_batch_size");
  connections_counter_ = metrics_->GetCounter("rpc_connections_accepted");
}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("RpcServer already started");
  }
  DGT_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(options_.port));
  DGT_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
  // Queue state is sampled at snapshot time, not pushed on every
  // enqueue — the admission path stays a single TryPush.
  queue_depth_token_ = metrics_->SetCallbackGauge(
      "rpc_queue_depth",
      [this] { return static_cast<int64_t>(queue_.size()); });
  queue_peak_token_ = metrics_->SetCallbackGauge(
      "rpc_queue_peak_depth",
      [this] { return static_cast<int64_t>(queue_.peak_depth()); });
  queue_rejected_token_ = metrics_->SetCallbackGauge(
      "rpc_queue_rejected",
      [this] { return static_cast<int64_t>(queue_.rejected()); });
  // dgt-lint: raw-thread-ok(RpcServer owns the accept thread)
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.worker_threads);
  for (uint32_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void RpcServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Unblock accept() and every reader's recv(); descriptors are only
  // closed by their owners' destructors after the threads joined.
  listen_fd_.ShutdownBothEnds();
  {
    MutexLock lock(conns_mu_);
    for (Reader& reader : readers_) {
      reader.conn->open.store(false, std::memory_order_relaxed);
      reader.conn->fd.ShutdownBothEnds();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    MutexLock lock(conns_mu_);
    for (Reader& reader : readers_) reader.thread.join();
  }
  // Already-accepted requests drain before the workers exit (their
  // replies fail harmlessly on the shut-down sockets).
  queue_.Close();
  ReleaseWorkers();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    MutexLock lock(conns_mu_);
    readers_.clear();
  }
  // The gauges sample queue_; unhook them before this object can die.
  metrics_->RemoveCallbackGauge("rpc_queue_depth", queue_depth_token_);
  metrics_->RemoveCallbackGauge("rpc_queue_peak_depth", queue_peak_token_);
  metrics_->RemoveCallbackGauge("rpc_queue_rejected", queue_rejected_token_);
  listen_fd_.Reset();
}

void RpcServer::ReleaseWorkers() {
  {
    MutexLock lock(hold_mu_);
    workers_held_ = false;
  }
  hold_cv_.notify_all();
}

void RpcServer::AcceptLoop() {
  for (;;) {
    Result<UniqueFd> accepted = AcceptConnection(listen_fd_.get());
    if (!accepted.ok()) return;  // listener shut down
    if (stopping_.load()) return;
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(accepted).value();
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_counter_->Increment();
    MutexLock lock(conns_mu_);
    if (stopping_.load()) return;  // raced Stop(); drop the connection
    ReapFinishedReaders();
    // dgt-lint: raw-thread-ok(RpcServer owns the per-connection readers)
    std::thread reader([this, conn] { ReaderLoop(conn); });
    readers_.push_back({std::move(conn), std::move(reader)});
  }
}

void RpcServer::ReapFinishedReaders() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->conn->reader_done.load(std::memory_order_acquire)) {
      it->thread.join();  // the flag is the reader's last act
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void RpcServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    Result<std::vector<uint8_t>> frame = ReadFrame(conn->fd.get());
    if (!frame.ok()) {
      // Clean EOF, peer reset, or an unrecoverable framing error (bad
      // length prefix). For the latter, answer with request id 0 before
      // closing — the stream offers no id to echo.
      if (frame.status().code() == StatusCode::kIoError && !stopping_.load()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, 0, WireError::kMalformedFrame,
                  frame.status().message());
      }
      break;
    }
    DecodedMessage msg;
    std::string reason;
    const WireError decode_error =
        DecodeFrame(frame->data(), frame->size(), &msg, &reason);
    if (decode_error != WireError::kOk) {
      SendError(conn, msg.header.request_id, decode_error, reason);
      if (decode_error == WireError::kMalformedFrame ||
          decode_error == WireError::kVersionMismatch) {
        // The byte stream can no longer be trusted; drop the connection.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      continue;  // UnknownType: framing is intact, keep serving
    }
    const bool is_request =
        static_cast<uint8_t>(msg.header.type) <
        static_cast<uint8_t>(MessageType::kPointQueryReply);
    if (!is_request) {
      SendError(conn, msg.header.request_id, WireError::kUnknownType,
                std::string(MessageTypeName(msg.header.type)) +
                    " is a reply type, not a request");
      continue;
    }
    // Counted at decode time, before admission control and before the
    // shutdown check, so the per-type counters equal the client's sent
    // counts exactly — even for requests answered with Backpressure.
    // That equality is the loadgen's hard-gated counter oracle. A stats
    // request therefore counts itself: the increment lands before any
    // worker can snapshot the registry for its reply.
    requests_by_type_[static_cast<uint8_t>(msg.header.type) - 1]->Increment();
    if (stopping_.load()) {
      SendError(conn, msg.header.request_id, WireError::kShuttingDown,
                "server is shutting down");
      break;
    }
    Request req;
    req.conn = conn;
    req.request_id = msg.header.request_id;
    req.body = std::move(msg.body);
    const uint64_t request_id = req.request_id;
    if (queue_.TryPush(std::move(req))) {
      requests_enqueued_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Admission control: the bounded queue is full (or closing) —
      // explicit backpressure instead of unbounded buffering.
      SendError(conn, request_id, WireError::kBackpressure,
                "request queue full (capacity " +
                    std::to_string(queue_.capacity()) +
                    "); retry after backoff");
    }
  }
  conn->open.store(false, std::memory_order_relaxed);
  conn->fd.ShutdownBothEnds();
  conn->reader_done.store(true, std::memory_order_release);
}

void RpcServer::WorkerLoop() {
  std::vector<Request> batch;
  for (;;) {
    {
      MutexLock lock(hold_mu_);
      hold_cv_.wait(lock.native(), [this] {
        hold_mu_.AssertHeld();  // CV predicates run with the lock held
        return !workers_held_;
      });
    }
    Request first;
    if (!queue_.PopBlocking(&first)) return;  // closed and drained
    batch.push_back(std::move(first));
    queue_.TryPopUpTo(kMaxBatch - 1, &batch);
    // One snapshot pin per batch: every query in it is answered from the
    // same immutable epoch (the RCU read-side critical section).
    const std::shared_ptr<const ReputationSnapshot> snap = service_->Snapshot();
    batches_drained_.fetch_add(1, std::memory_order_relaxed);
    batch_size_hist_->Record(batch.size());
    uint64_t seen = max_batch_observed_.load(std::memory_order_relaxed);
    while (batch.size() > seen &&
           !max_batch_observed_.compare_exchange_weak(
               seen, batch.size(), std::memory_order_relaxed)) {
    }
    for (const Request& req : batch) ProcessRequest(req, snap);
    // Release the batch's connection references now rather than when the
    // next request arrives, so a finished connection's fd closes promptly.
    batch.clear();
  }
}

void RpcServer::ProcessRequest(
    const Request& req, const std::shared_ptr<const ReputationSnapshot>& snap) {
  // The request-body variant lists the request alternatives first, in
  // MessageType order, so the variant index doubles as the op index into
  // the per-op latency histograms.
  const size_t op = req.body.index();
  // dgt-lint: raw-time-ok(latency histogram timing; never feeds scores)
  const auto start = std::chrono::steady_clock::now();
  DispatchRequest(req, snap);
  if (op < kNumRequestTypes) {
    // dgt-lint: raw-time-ok(latency histogram timing; never feeds scores)
    const auto end = std::chrono::steady_clock::now();
    service_latency_[op]->RecordValue(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
}

void RpcServer::DispatchRequest(
    const Request& req, const std::shared_ptr<const ReputationSnapshot>& snap) {
  const uint64_t id = req.request_id;
  auto reply_error = [&](WireError error, const std::string& message) {
    SendError(req.conn, id, error, message);
  };
  auto require_snapshot = [&]() -> bool {
    if (snap != nullptr) return true;
    reply_error(WireError::kNotReady,
                "no epoch snapshot published yet; retry later");
    return false;
  };

  if (const auto* m = std::get_if<PointQueryRequest>(&req.body)) {
    if (!require_snapshot()) return;
    Result<PointQueryResult> r = PointQuery(*snap, m->observer, m->target);
    if (!r.ok()) {
      reply_error(WireErrorFromStatus(r.status()), r.status().message());
      return;
    }
    SendReply(req.conn, Encode(id, PointQueryReply{r->epoch, r->score}),
              /*is_error=*/false);
  } else if (const auto* m = std::get_if<BatchQueryRequest>(&req.body)) {
    if (!require_snapshot()) return;
    Result<BatchQueryResult> r = BatchQuery(*snap, m->observer, m->targets);
    if (!r.ok()) {
      reply_error(WireErrorFromStatus(r.status()), r.status().message());
      return;
    }
    SendReply(req.conn,
              Encode(id, BatchQueryReply{r->epoch, std::move(r->scores)}),
              /*is_error=*/false);
  } else if (const auto* m = std::get_if<TopKQueryRequest>(&req.body)) {
    if (!require_snapshot()) return;
    Result<TopKQueryResult> r = TopKQuery(*snap, m->observer, m->k);
    if (!r.ok()) {
      reply_error(WireErrorFromStatus(r.status()), r.status().message());
      return;
    }
    SendReply(req.conn,
              Encode(id, TopKQueryReply{r->epoch, std::move(r->ids),
                                        std::move(r->scores)}),
              /*is_error=*/false);
  } else if (const auto* m = std::get_if<TrustUpdateRequest>(&req.body)) {
    const Status s =
        m->erase ? service_->SubmitTrustErase(m->observer, m->target)
                 : service_->SubmitTrustUpdate(m->observer, m->target,
                                               m->value);
    if (!s.ok()) {
      // The service reports a full ingest queue as FailedPrecondition;
      // on the wire that is serve-layer backpressure, distinct from the
      // RPC queue's kBackpressure.
      const WireError e = s.code() == StatusCode::kFailedPrecondition
                              ? WireError::kUpdateRejected
                              : WireErrorFromStatus(s);
      reply_error(e, s.message());
      return;
    }
    SendReply(req.conn, Encode(id, TrustUpdateReply{}), /*is_error=*/false);
  } else if (std::get_if<PingRequest>(&req.body) != nullptr) {
    SendReply(req.conn, Encode(id, PingReply{snap ? snap->epoch : 0}),
              /*is_error=*/false);
  } else if (std::get_if<StatsRequest>(&req.body) != nullptr) {
    // The snapshot is taken on the worker thread after this request was
    // counted in the reader, so the reply's own rpc_requests_stats
    // already includes it.
    SendReply(req.conn, Encode(id, StatsFromMetrics(metrics_->Snapshot())),
              /*is_error=*/false);
  } else {
    reply_error(WireError::kInternal, "request body/type mismatch");
  }
}

void RpcServer::SendError(const std::shared_ptr<Connection>& conn,
                          uint64_t request_id, WireError error,
                          const std::string& message) {
  const size_t code = static_cast<size_t>(error);
  if (code >= 1 && code <= kNumErrorCodes) {
    errors_by_code_[code - 1]->Increment();
  }
  SendReply(conn, EncodeError(request_id, error, message), /*is_error=*/true);
}

void RpcServer::SendReply(const std::shared_ptr<Connection>& conn,
                          const std::vector<uint8_t>& payload, bool is_error) {
  MutexLock lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_relaxed)) return;
  if (WriteFrame(conn->fd.get(), payload).ok()) {
    replies_sent_.fetch_add(1, std::memory_order_relaxed);
    if (is_error) error_replies_sent_.fetch_add(1, std::memory_order_relaxed);
  } else {
    conn->open.store(false, std::memory_order_relaxed);
  }
}

}  // namespace rpc
}  // namespace dgt
