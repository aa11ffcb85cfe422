// serve_rpc: networked queries beside writes.
//
// A self-hosted RpcServer (2 workers) over a ReputationService frozen
// after a 2-round paced schedule on a PA graph (N = 500, 20 opinions per
// node, xi = 1e-3). Four closed-loop connections each repeat dgt_loadgen's
// mix: 8 point queries, 1 batch query (16 targets), 1 top-k query (k = 8)
// and 1 trust update. rpc does most of the work (frame I/O, the reader ->
// queue -> worker hand-offs, encoding and writing replies), serve's read
// path the rest, gossip none; the updates put writes beside reads on the
// same connections and queue. Four connections because two gave bimodal
// throughput. The updates never fold (the round budget is spent), so the
// ingest queue is sized for every update the run can send.
//
// Checks: every observer's row fetched over the wire equals the service's
// row bit for bit, and the server's per-type request counters equal the
// client's sent counts. The traced run replays the recorded request stream
// after the timed phase through serve/query.h on the pinned snapshot and
// through the rpc/wire.h codec.

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/bench_output.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "serve/query.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr uint32_t kNodes = 500;
constexpr uint32_t kRounds = 2;
constexpr uint32_t kGossipThreads = 2;
// Updates folded into round 2 of the set-up schedule.
constexpr uint32_t kSetupBatch = 100;
constexpr uint32_t kConnections = 4;
constexpr uint32_t kWorkers = 2;
// One traffic block: 8 point, 1 batch, 1 top-k, 1 update (dgt_loadgen).
constexpr uint32_t kBlock = 11;
constexpr uint32_t kBatchTargets = 16;
constexpr uint32_t kTopK = 8;
// Requests a connection may send per second of run: three times the
// closed-loop rate seen on 4 cores. It sizes the round-trip sample buffers
// and bounds the updates a run can send, which sizes the ingest queue.
constexpr uint64_t kMaxRequestsPerConnPerSecond = 60000;
// Requests per connection the traced run records as spans; the rest are
// kept only as round-trip samples.
constexpr uint64_t kMaxSpansPerConn = 100000;

enum Op { kPoint = 0, kBatch = 1, kTopKOp = 2, kUpdate = 3, kNumOps = 4 };
constexpr const char* kOpSpan[kNumOps] = {"rpc.QueryPoint", "rpc.QueryBatch",
                                          "rpc.QueryTopK",
                                          "rpc.SubmitTrustUpdate"};
constexpr const char* kOpCounter[kNumOps] = {
    "rpc_requests_point_query", "rpc_requests_batch_query",
    "rpc_requests_topk_query", "rpc_requests_trust_update"};
constexpr const char* kOpServiceHist[kNumOps] = {
    "rpc_service_point_query_us", "rpc_service_batch_query_us",
    "rpc_service_topk_query_us", "rpc_service_trust_update_us"};

Op OpAt(uint64_t index) {
  const uint64_t pos = index % kBlock;
  if (pos < 8) return kPoint;
  if (pos == 8) return kBatch;
  if (pos == 9) return kTopKOp;
  return kUpdate;
}

// One generated request; a pure function of the connection's stream.
struct Request {
  Op op = kPoint;
  dgt::NodeId observer = 0;
  dgt::NodeId target = 0;
  std::vector<dgt::NodeId> targets;
  double value = 0.0;
};

Request NextRequest(uint64_t index, dgt::Rng* rng) {
  Request r;
  r.op = OpAt(index);
  switch (r.op) {
    case kPoint:
      r.observer = static_cast<dgt::NodeId>(rng->NextBelow(kNodes));
      r.target = static_cast<dgt::NodeId>(rng->NextBelow(kNodes));
      break;
    case kBatch:
      r.targets.resize(kBatchTargets);
      for (auto& t : r.targets) t = static_cast<dgt::NodeId>(rng->NextBelow(kNodes));
      r.observer = static_cast<dgt::NodeId>(rng->NextBelow(kNodes));
      break;
    case kTopKOp:
      r.observer = static_cast<dgt::NodeId>(rng->NextBelow(kNodes));
      break;
    default:
      r.observer = static_cast<dgt::NodeId>(rng->NextBelow(kNodes));
      r.target = static_cast<dgt::NodeId>(
          (r.observer + 1 + rng->NextBelow(kNodes - 1)) % kNodes);
      r.value = rng->NextDouble();
      break;
  }
  return r;
}

struct Instance {
  std::unique_ptr<dgt::obs::MetricsRegistry> registry;
  std::unique_ptr<dgt::Graph> graph;
  // The trust state the served epoch aggregated.
  std::unique_ptr<dgt::TrustMatrix> trust;
  std::unique_ptr<dgt::ReputationService> service;
  std::unique_ptr<dgt::rpc::RpcServer> server;
  std::vector<dgt::rpc::RpcClient> clients;
  std::vector<dgt::GossipRunStats> round_stats;
  double pa_ms = 0.0;
};

// Tears down clients, server and service before the registry they use.
void TearDown(Instance* inst) {
  inst->clients.clear();
  inst->server.reset();
  inst->service.reset();
}

dgt::Status SetUp(uint64_t seed, size_t ingest_capacity, Instance* inst) {
  inst->registry = std::make_unique<dgt::obs::MetricsRegistry>();
  const int64_t pa_start = NowNs();
  inst->graph = std::make_unique<dgt::Graph>(dgt::bench_util::MustMakePaGraph(
      kNodes, kEdgesPerNode, DeriveSeed(seed, 1)));
  inst->pa_ms = static_cast<double>(NowNs() - pa_start) / 1e6;
  inst->trust =
      std::make_unique<dgt::TrustMatrix>(dgt::bench_util::MakeSparseTrust(
          kNodes, kOpinionsPerNode, DeriveSeed(seed, 2)));

  dgt::ReputationServiceOptions o;
  o.system.aggregation.gossip.xi = kXi;
  o.system.aggregation.gossip.num_threads = kGossipThreads;
  o.system.base_seed = DeriveSeed(seed, 3);
  o.num_rounds = kRounds;
  o.paced = true;
  o.update_queue_capacity = ingest_capacity;
  o.metrics = inst->registry.get();
  inst->service = std::make_unique<dgt::ReputationService>(inst->graph.get(),
                                                           *inst->trust, o);
  dgt::ReputationService& service = *inst->service;
  const uint32_t reader = service.RegisterReader();
  DGT_RETURN_IF_ERROR(service.Start());
  uint64_t last = 0;
  for (uint64_t epoch; (epoch = service.AwaitEpochAfter(last)) != 0;
       last = epoch) {
    const auto snap = service.Snapshot();
    if (snap == nullptr || snap->epoch != epoch) {
      return dgt::Status::Internal("snapshot lags the published epoch");
    }
    inst->round_stats.push_back(snap->round_stats);
    if (epoch < kRounds) {
      for (const dgt::TrustUpdate& u : dgt::MakeDistinctTrustUpdates(
               kNodes, DeriveSeed(seed, 4) + epoch, kSetupBatch)) {
        DGT_RETURN_IF_ERROR(
            service.SubmitTrustUpdate(u.observer, u.target, u.value));
        DGT_RETURN_IF_ERROR(inst->trust->Set(u.observer, u.target, u.value));
      }
    }
    service.AckEpoch(reader, epoch);
  }
  service.AwaitCompletion();
  DGT_RETURN_IF_ERROR(service.driver_status());
  if (service.epoch() != kRounds || inst->round_stats.size() != kRounds ||
      service.updates_folded() != kSetupBatch) {
    return dgt::Status::Internal("set-up schedule ended at epoch " +
                                 std::to_string(service.epoch()));
  }

  dgt::rpc::RpcServerOptions so;
  so.worker_threads = kWorkers;
  so.metrics = inst->registry.get();
  inst->server = std::make_unique<dgt::rpc::RpcServer>(&service, so);
  DGT_RETURN_IF_ERROR(inst->server->Start());
  for (uint32_t c = 0; c < kConnections; ++c) {
    DGT_ASSIGN_OR_RETURN(dgt::rpc::RpcClient client,
                         dgt::rpc::RpcClient::Connect(inst->server->port()));
    inst->clients.push_back(std::move(client));
  }
  return dgt::Status::OK();
}

// One connection's accounting for the timed phase.
struct ConnResult {
  // Raw round trip of request i in nanoseconds (clamped at 2^32 - 1, about
  // 4.3 s); its type is OpAt(i).
  std::vector<uint32_t> ns;
  uint64_t sent[kNumOps] = {};
  uint64_t ok = 0;
  uint64_t refused = 0;  // Backpressure or UpdateRejected
  std::vector<std::string> errors;
  uint64_t requests = 0;
  int64_t end_ns = 0;
};

void Drive(dgt::rpc::RpcClient* client, uint32_t conn, uint64_t stream_seed,
           int64_t deadline_ns, uint64_t max_requests, SpanBuffer* buf,
           ConnResult* out) {
  dgt::Rng rng(stream_seed);
  const ScopedSpan conn_span(buf, "rpc.connection", conn);
  for (uint64_t i = 0; i < max_requests; ++i) {
    const Request r = NextRequest(i, &rng);
    const int64_t t0 = NowNs();
    dgt::Status s;
    switch (r.op) {
      case kPoint:
        s = client->QueryPoint(r.observer, r.target).status();
        break;
      case kBatch:
        s = client->QueryBatch(r.observer, r.targets).status();
        break;
      case kTopKOp:
        s = client->QueryTopK(r.observer, kTopK).status();
        break;
      default:
        s = client->SubmitTrustUpdate(r.observer, r.target, r.value);
        break;
    }
    const int64_t t1 = NowNs();
    out->ns[i] = static_cast<uint32_t>(
        std::min<int64_t>(t1 - t0, std::numeric_limits<uint32_t>::max()));
    ++out->sent[r.op];
    ++out->requests;
    if (s.ok()) {
      ++out->ok;
    } else if (client->last_wire_error() == dgt::rpc::WireError::kBackpressure ||
               client->last_wire_error() ==
                   dgt::rpc::WireError::kUpdateRejected) {
      ++out->refused;
    } else if (out->errors.size() < 4) {
      out->errors.push_back(s.ToString());
    }
    if (buf != nullptr && i < kMaxSpansPerConn) {
      buf->Add(kOpSpan[r.op], t0, t1, (uint64_t{conn} << 40) | i,
               conn_span.index());
    }
    out->end_ns = t1;
    if (t1 >= deadline_ns) break;
  }
}

uint64_t CounterOr0(const dgt::obs::MetricsSnapshot& m, const std::string& k) {
  const auto it = m.counters.find(k);
  return it == m.counters.end() ? 0 : it->second;
}

double HistMean(const dgt::obs::MetricsSnapshot& m, const std::string& k) {
  const auto it = m.histograms.find(k);
  return it == m.histograms.end() ? 0.0 : it->second.Mean();
}

// Query and codec timings of the replayed request stream.
struct ReplayTimes {
  std::vector<int64_t> query_ns[3];  // point, batch, top-k
  std::vector<int64_t> codec_ns;
};

template <typename Req, typename Reply>
int64_t TimeCodec(uint64_t id, const Req& request, const Reply& reply,
                  bool* ok) {
  dgt::rpc::DecodedMessage decoded;
  std::string error;
  const int64_t t0 = NowNs();
  const std::vector<uint8_t> req_bytes = dgt::rpc::Encode(id, request);
  *ok &= dgt::rpc::DecodeFrame(req_bytes.data(), req_bytes.size(), &decoded,
                               &error) == dgt::rpc::WireError::kOk;
  const std::vector<uint8_t> reply_bytes = dgt::rpc::Encode(id, reply);
  *ok &= dgt::rpc::DecodeFrame(reply_bytes.data(), reply_bytes.size(),
                               &decoded, &error) == dgt::rpc::WireError::kOk;
  return NowNs() - t0;
}

// Replays every connection's request stream, as sent, through serve/query.h
// on the pinned snapshot and through the wire codec.
bool ReplayStreams(const dgt::ReputationSnapshot& snap,
                   const std::vector<uint64_t>& stream_seeds,
                   const std::vector<ConnResult>& conns, ReplayTimes* out) {
  bool ok = true;
  for (size_t c = 0; c < conns.size(); ++c) {
    dgt::Rng rng(stream_seeds[c]);
    for (uint64_t i = 0; i < conns[c].requests; ++i) {
      const Request r = NextRequest(i, &rng);
      int64_t t0 = 0;
      int64_t t1 = 0;
      switch (r.op) {
        case kPoint: {
          t0 = NowNs();
          const auto q = dgt::PointQuery(snap, r.observer, r.target);
          t1 = NowNs();
          if (!q.ok()) return false;
          out->query_ns[0].push_back(t1 - t0);
          out->codec_ns.push_back(TimeCodec(
              i, dgt::rpc::PointQueryRequest{r.observer, r.target},
              dgt::rpc::PointQueryReply{q.value().epoch, q.value().score}, &ok));
          break;
        }
        case kBatch: {
          t0 = NowNs();
          const auto q = dgt::BatchQuery(snap, r.observer, r.targets);
          t1 = NowNs();
          if (!q.ok()) return false;
          out->query_ns[1].push_back(t1 - t0);
          out->codec_ns.push_back(TimeCodec(
              i, dgt::rpc::BatchQueryRequest{r.observer, r.targets},
              dgt::rpc::BatchQueryReply{q.value().epoch, q.value().scores},
              &ok));
          break;
        }
        case kTopKOp: {
          t0 = NowNs();
          const auto q = dgt::TopKQuery(snap, r.observer, kTopK);
          t1 = NowNs();
          if (!q.ok()) return false;
          out->query_ns[2].push_back(t1 - t0);
          out->codec_ns.push_back(TimeCodec(
              i, dgt::rpc::TopKQueryRequest{r.observer, kTopK},
              dgt::rpc::TopKQueryReply{q.value().epoch, q.value().ids,
                                       q.value().scores},
              &ok));
          break;
        }
        default:
          out->codec_ns.push_back(TimeCodec(
              i,
              dgt::rpc::TrustUpdateRequest{r.observer, r.target, r.value,
                                           false},
              dgt::rpc::TrustUpdateReply{}, &ok));
          break;
      }
      if (!ok) return false;
    }
  }
  return ok;
}

}  // namespace

Outcome RunServeRpc(const RunConfig& config, Trace* trace) {
  Outcome res;
  SpanBuffer* buf = trace != nullptr ? trace->NewBuffer() : nullptr;
  const uint64_t max_requests = static_cast<uint64_t>(
      std::max(1.0, config.seconds) * kMaxRequestsPerConnPerSecond);
  // Every update the run can send, plus the set-up batch.
  const size_t ingest_capacity =
      kSetupBatch + kConnections * ((max_requests + kBlock - 1) / kBlock);

  Instance inst;
  std::vector<double> setup_s, pa_ms;
  // Peak RSS of the first set-up in a fresh process: graph, service after
  // its 2 rounds, server and connections. Read later, it also holds the
  // allocator arenas that the threads of the next set-ups and of the
  // traffic leave behind, and its spread over ten seeds was 11 to 19 %;
  // read here, about 5 %.
  double peak_rss_mb = 0.0;
  for (int k = 0; k < kSetups; ++k) {
    TearDown(&inst);
    inst = Instance();
    const int64_t start = k == 0 ? config.process_start_ns : NowNs();
    const dgt::Status s = SetUp(config.seed, ingest_capacity, &inst);
    const int64_t end = NowNs();
    if (!s.ok()) {
      res.Fail("set-up: " + s.ToString());
      return res;
    }
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
    if (k == 0) peak_rss_mb = dgt::PeakRssMb();
    pa_ms.push_back(inst.pa_ms);
    if (buf != nullptr) buf->Add("setup", start, end, k);
  }

  // Timed phase: closed-loop connections until the deadline.
  std::vector<ConnResult> conns(kConnections);
  for (ConnResult& c : conns) c.ns.assign(max_requests, 0);
  std::vector<uint64_t> stream_seeds;
  std::vector<SpanBuffer*> bufs;
  for (uint32_t c = 0; c < kConnections; ++c) {
    stream_seeds.push_back(DeriveSeed(config.seed, 16 + c));
    bufs.push_back(trace != nullptr ? trace->NewBuffer() : nullptr);
  }
  const int64_t phase_start = NowNs();
  const int64_t deadline =
      phase_start + static_cast<int64_t>(config.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(Drive, &inst.clients[c], c, stream_seeds[c],
                           deadline, max_requests, bufs[c], &conns[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  int64_t phase_end = phase_start;
  for (const ConnResult& c : conns) phase_end = std::max(phase_end, c.end_ns);

  std::vector<int64_t> op_ns[kNumOps];
  uint64_t sent[kNumOps] = {};
  uint64_t ok = 0, refused = 0;
  for (const ConnResult& c : conns) {
    for (uint64_t i = 0; i < c.requests; ++i) op_ns[OpAt(i)].push_back(c.ns[i]);
    for (int op = 0; op < kNumOps; ++op) sent[op] += c.sent[op];
    ok += c.ok;
    refused += c.refused;
    for (const std::string& e : c.errors) res.Fail("request failed: " + e);
  }
  res.attempted = sent[kPoint] + sent[kBatch] + sent[kTopKOp] + sent[kUpdate];
  res.failed = res.attempted - ok;

  // The server's own counters, fetched over the stats RPC, must equal the
  // client's sent counts.
  dgt::rpc::RpcClient& probe = inst.clients[0];
  dgt::obs::MetricsSnapshot server;
  {
    dgt::Result<dgt::rpc::StatsResponse> stats = probe.FetchStats();
    if (!stats.ok()) {
      res.Fail("stats RPC: " + stats.status().ToString());
      return res;
    }
    server = dgt::rpc::MetricsFromStats(stats.value());
  }
  for (int op = 0; op < kNumOps; ++op) {
    if (CounterOr0(server, kOpCounter[op]) != sent[op]) {
      res.Fail(std::string("server counter ") + kOpCounter[op] + " = " +
               std::to_string(CounterOr0(server, kOpCounter[op])) +
               ", client sent " + std::to_string(sent[op]));
    }
  }
  if (CounterOr0(server, "rpc_requests_stats") != 1 ||
      CounterOr0(server, "rpc_requests_ping") != 0) {
    res.Fail("server counted unexpected stats or ping requests");
  }

  // Every observer's row over the wire equals the in-process row.
  std::vector<dgt::NodeId> all(kNodes);
  for (uint32_t j = 0; j < kNodes; ++j) all[j] = j;
  uint64_t mismatched = 0;
  for (dgt::NodeId o = 0; o < kNodes; ++o) {
    const auto served = probe.QueryBatch(o, all);
    const auto local = inst.service->QueryBatch(o, all);
    if (!served.ok() || !local.ok() ||
        served.value().epoch != local.value().epoch ||
        served.value().scores.size() != local.value().scores.size() ||
        std::memcmp(served.value().scores.data(), local.value().scores.data(),
                    local.value().scores.size() * sizeof(double)) != 0) {
      ++mismatched;
    }
  }
  if (mismatched != 0) {
    res.Fail(std::to_string(mismatched) +
             " observer rows served over the wire differ from the service");
  }

  const auto snap = inst.service->Snapshot();
  dgt::Result<double> rms = dgt::Status::Internal("no reference");
  {
    const dgt::Result<ExactReference> ref =
        BuildExactReference(*inst.graph, *inst.trust, {}, kNodes);
    if (ref.ok()) rms = RmsError(ref.value(), snap->scores);
  }
  if (!rms.ok()) {
    res.Fail("rms_error: " + rms.status().ToString());
  } else if (!(rms.value() < kRmsTolerance)) {
    res.Fail("rms_error " + std::to_string(rms.value()) + " exceeds " +
             std::to_string(kRmsTolerance));
  }
  for (const dgt::GossipRunStats& s : inst.round_stats) {
    if (!s.converged) res.Fail("a set-up round did not converge");
  }
  if (!res.ok()) {
    TearDown(&inst);
    return res;
  }

  std::vector<int64_t> read_ns;
  for (int op : {kPoint, kBatch, kTopKOp}) {
    read_ns.insert(read_ns.end(), op_ns[op].begin(), op_ns[op].end());
  }
  std::vector<int64_t> all_ns = read_ns;
  all_ns.insert(all_ns.end(), op_ns[kUpdate].begin(), op_ns[kUpdate].end());
  const Samples<int64_t> reads(std::move(read_ns));
  const Samples<int64_t> writes(op_ns[kUpdate]);
  const Samples<int64_t> every(std::move(all_ns));
  const double phase_s = static_cast<double>(phase_end - phase_start) / 1e9;
  std::vector<double> steps, msgs;
  for (const dgt::GossipRunStats& s : inst.round_stats) {
    steps.push_back(s.steps);
    msgs.push_back(s.mean_messages_per_active_node_step);
  }
  res.end_to_end = {
      M("setup_s", Median(setup_s), "s", setup_s.size()),
      M("latency_p50_ms", static_cast<double>(reads.Median()) / 1e6, "ms",
        reads.count()),
      M("throughput_per_s", static_cast<double>(res.attempted) / phase_s,
        "1/s", res.attempted),
      M("peak_rss_mb", peak_rss_mb, "MB", 0),
      M("steps_to_converge", Mean(steps), "steps", steps.size()),
      M("msgs_per_node_step", Mean(msgs), "ratio", msgs.size()),
  };
  res.info = {
      M("rms_error", rms.value(), "ratio", kNodes),
      M("read_p50_us", static_cast<double>(reads.Median()) / 1e3, "us",
        reads.count()),
      M("read_p99_us", static_cast<double>(reads.Percentile(990)) / 1e3, "us",
        reads.count()),
      M("write_p50_us", static_cast<double>(writes.Median()) / 1e3, "us",
        writes.count()),
      M("write_p99_us", static_cast<double>(writes.Percentile(990)) / 1e3,
        "us", writes.count()),
      M("error_frac",
        static_cast<double>(res.failed) / static_cast<double>(res.attempted),
        "ratio", res.attempted),
  };

  if (trace != nullptr) {
    ReplayTimes replay;
    {
      const ScopedSpan span(buf, "replay", 0);
      if (!ReplayStreams(*snap, stream_seeds, conns, &replay)) {
        res.Fail("replayed query or codec call failed");
        TearDown(&inst);
        return res;
      }
    }
    const Samples<int64_t> qp(replay.query_ns[0]);
    const Samples<int64_t> qb(replay.query_ns[1]);
    const Samples<int64_t> qt(replay.query_ns[2]);
    const Samples<int64_t> codec(replay.codec_ns);
    const double query_mean_ns =
        (qp.Mean() * qp.count() + qb.Mean() * qb.count() +
         qt.Mean() * qt.count()) /
        static_cast<double>(qp.count() + qb.count() + qt.count());

    double server_sum_us = 0.0;
    uint64_t server_count = 0;
    for (int op = 0; op < kNumOps; ++op) {
      const auto it = server.histograms.find(kOpServiceHist[op]);
      if (it == server.histograms.end()) continue;
      server_sum_us += static_cast<double>(it->second.sum);
      server_count += it->second.count;
    }
    const double server_mean_us =
        server_count == 0 ? 0.0 : server_sum_us / server_count;
    const auto peak = server.gauges.find("rpc_queue_peak_depth");
    const auto p50_us = [&](int op) {
      return static_cast<double>(Samples<int64_t>(op_ns[op]).Median()) / 1e3;
    };
    res.per_layer = {
        M("graph.pa_ms", Median(pa_ms), "ms", pa_ms.size()),
        M("serve.query_point_ns", static_cast<double>(qp.Median()), "ns",
          qp.count()),
        M("serve.query_batch_ns", static_cast<double>(qb.Median()), "ns",
          qb.count()),
        M("serve.query_topk_ns", static_cast<double>(qt.Median()), "ns",
          qt.count()),
        M("serve.query_share", query_mean_ns / reads.Mean(), "ratio",
          reads.count()),
        M("rpc.rtt_point_p50_us", p50_us(kPoint), "us", sent[kPoint]),
        M("rpc.rtt_batch_p50_us", p50_us(kBatch), "us", sent[kBatch]),
        M("rpc.rtt_topk_p50_us", p50_us(kTopKOp), "us", sent[kTopKOp]),
        M("rpc.rtt_update_p50_us", p50_us(kUpdate), "us", sent[kUpdate]),
        M("rpc.read_p50_us", static_cast<double>(reads.Median()) / 1e3, "us",
          reads.count()),
        M("rpc.read_p99_us", static_cast<double>(reads.Percentile(990)) / 1e3,
          "us", reads.count()),
        M("rpc.read_p999_us",
          static_cast<double>(reads.Percentile(999)) / 1e3, "us",
          reads.count()),
        M("rpc.write_p50_us", static_cast<double>(writes.Median()) / 1e3, "us",
          writes.count()),
        M("rpc.write_p99_us",
          static_cast<double>(writes.Percentile(990)) / 1e3, "us",
          writes.count()),
        M("rpc.server_mean_us", server_mean_us, "us", server_count),
        M("rpc.transport_mean_us", every.Mean() / 1e3 - server_mean_us, "us",
          every.count(), true),
        M("rpc.codec_ns", static_cast<double>(codec.Median()), "ns",
          codec.count()),
        M("rpc.batch_mean", HistMean(server, "rpc_batch_size"), "count",
          server.histograms.count("rpc_batch_size") != 0
              ? server.histograms.at("rpc_batch_size").count
              : 0),
        M("rpc.queue_peak",
          peak == server.gauges.end() ? 0.0 : static_cast<double>(peak->second),
          "count", 0),
        M("rpc.sent", static_cast<double>(res.attempted), "count", 0),
        M("rpc.ok", static_cast<double>(ok), "count", 0),
        M("rpc.refused", static_cast<double>(refused), "count", 0),
        M("trace.latency_p50_ms", static_cast<double>(reads.Median()) / 1e6,
          "ms", reads.count()),
    };
  }
  TearDown(&inst);
  return res;
}

}  // namespace perfbench
