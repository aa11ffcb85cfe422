// RpcServer behaviour at the transport/admission layer: readiness
// before the first epoch, deterministic backpressure when the bounded
// request queue fills, the error-close discipline (malformed frame /
// version mismatch answer then close; unknown type answers and keeps
// the connection), and served query results matching the in-process
// service. The full workload bit-identity run lives in
// end_to_end_test.cc.

#include "rpc/server.h"

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "rpc/client.h"
#include "rpc/frame_io.h"
#include "rpc/wire.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace rpc {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;

ReputationServiceOptions ServiceOptions(uint32_t rounds) {
  ReputationServiceOptions o;
  o.system.aggregation.gossip.xi = 1e-3;
  o.system.base_seed = 17;
  o.num_rounds = rounds;
  return o;
}

// A served service: `rounds` completed, snapshot frozen.
struct Fixture {
  Fixture(uint32_t n, uint32_t rounds, RpcServerOptions server_opts = {})
      : graph(MakePaGraph(n, 2, 91)), trust(n) {
    FillTrust(graph, &trust, 5);
    service = std::make_unique<ReputationService>(&graph, trust,
                                                  ServiceOptions(rounds));
    if (rounds > 0) {
      EXPECT_TRUE(service->Start().ok());
      service->AwaitCompletion();
      EXPECT_TRUE(service->driver_status().ok());
    }
    server = std::make_unique<RpcServer>(service.get(), server_opts);
    EXPECT_TRUE(server->Start().ok());
  }
  ~Fixture() { server->Stop(); }

  Graph graph;
  TrustMatrix trust;
  std::unique_ptr<ReputationService> service;
  std::unique_ptr<RpcServer> server;
};

TEST(RpcServerTest, ServesQueriesIdenticalToInProcessService) {
  Fixture fx(32, 2);
  Result<RpcClient> client = RpcClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_EQ(client.value().Ping().value_or(0), 2u);

  for (NodeId i = 0; i < 32; i += 5) {
    for (NodeId j = 0; j < 32; j += 3) {
      Result<PointQueryReply> served = client.value().QueryPoint(i, j);
      Result<PointQueryResult> local = fx.service->QueryPoint(i, j);
      ASSERT_TRUE(served.ok() && local.ok());
      EXPECT_EQ(served.value().epoch, local.value().epoch);
      EXPECT_EQ(served.value().score, local.value().score);  // bit-exact
    }
  }

  const std::vector<NodeId> targets = {0, 7, 7, 31};
  Result<BatchQueryReply> served_b = client.value().QueryBatch(3, targets);
  Result<BatchQueryResult> local_b = fx.service->QueryBatch(3, targets);
  ASSERT_TRUE(served_b.ok() && local_b.ok());
  EXPECT_EQ(served_b.value().scores, local_b.value().scores);

  Result<TopKQueryReply> served_k = client.value().QueryTopK(3, 5);
  Result<TopKQueryResult> local_k = fx.service->QueryTopK(3, 5);
  ASSERT_TRUE(served_k.ok() && local_k.ok());
  EXPECT_EQ(served_k.value().ids, local_k.value().ids);
  EXPECT_EQ(served_k.value().scores, local_k.value().scores);
}

TEST(RpcServerTest, NotReadyBeforeFirstEpochButPingWorks) {
  // rounds = 0 and never started: no snapshot exists.
  Fixture fx(16, 0);
  Result<RpcClient> client = RpcClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  EXPECT_EQ(client.value().Ping().value_or(99), 0u);
  Result<PointQueryReply> r = client.value().QueryPoint(1, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(client.value().last_wire_error(), WireError::kNotReady);
}

TEST(RpcServerTest, QueryAndUpdateErrorsCarryNamedCodes) {
  Fixture fx(16, 1);
  Result<RpcClient> client = RpcClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  RpcClient& rpc = client.value();

  EXPECT_FALSE(rpc.QueryPoint(99, 0).ok());  // observer out of range
  EXPECT_EQ(rpc.last_wire_error(), WireError::kOutOfRange);

  EXPECT_FALSE(rpc.QueryBatch(0, {}).ok());  // empty target list
  EXPECT_EQ(rpc.last_wire_error(), WireError::kInvalidArgument);

  EXPECT_FALSE(rpc.QueryTopK(0, 0).ok());  // k == 0
  EXPECT_EQ(rpc.last_wire_error(), WireError::kInvalidArgument);

  EXPECT_FALSE(rpc.SubmitTrustUpdate(3, 3, 0.5).ok());  // self-opinion
  EXPECT_EQ(rpc.last_wire_error(), WireError::kInvalidArgument);

  EXPECT_FALSE(rpc.SubmitTrustUpdate(3, 4, 1.5).ok());  // value > 1
  EXPECT_EQ(rpc.last_wire_error(), WireError::kInvalidArgument);

  // Valid update on the same connection still works: none of the above
  // closed it.
  EXPECT_TRUE(rpc.SubmitTrustUpdate(3, 4, 0.5).ok());
}

size_t OpenFdCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

// Regression: the accept loop kept every connection, with its open fd,
// and its reader thread until Stop(), so a long-lived server leaked one
// descriptor and one unjoined thread per closed connection. Finished
// readers are now reaped, so the fd count stays flat across many
// sequential clients.
TEST(RpcServerTest, ClosedConnectionsReleaseDescriptorsAndReaders) {
  RpcServerOptions opts;
  opts.worker_threads = 2;
  Fixture fx(16, 0, opts);
  const size_t before = OpenFdCount();
  for (int i = 0; i < 500; ++i) {
    Result<RpcClient> client = RpcClient::Connect(fx.server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Ping().ok());
    client.value().Close();
  }
  const size_t after = OpenFdCount();
  EXPECT_LT(after, before + 16)
      << "fd count grew from " << before << " to " << after
      << " over 500 closed connections";
}

TEST(RpcServerTest, FullRequestQueueAnswersBackpressureDeterministically) {
  RpcServerOptions opts;
  opts.request_queue_capacity = 2;
  opts.hold_workers = true;  // park the pool: nothing drains the queue
  opts.worker_threads = 1;
  Fixture fx(16, 1, opts);

  Result<UniqueFd> conn = ConnectLoopback(fx.server->port());
  ASSERT_TRUE(conn.ok());
  const int fd = conn.value().get();

  // Pipeline three requests into a capacity-2 queue. The reader thread
  // enqueues 1 and 2, rejects 3 — so the FIRST reply on the wire is
  // request 3's Backpressure error, written by the reader itself.
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(WriteFrame(fd, Encode(id, PingRequest{})).ok());
  }
  DecodedMessage msg;
  std::string reason;
  Result<std::vector<uint8_t>> frame = ReadFrame(fd);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(DecodeFrame(frame.value().data(), frame.value().size(), &msg,
                        &reason),
            WireError::kOk);
  EXPECT_EQ(msg.header.request_id, 3u);
  EXPECT_EQ(msg.header.type, MessageType::kErrorReply);
  EXPECT_EQ(msg.header.error, WireError::kBackpressure);
  EXPECT_EQ(fx.server->requests_rejected(), 1u);

  // Unpark the workers: the two admitted requests are answered in FIFO
  // order on this connection.
  fx.server->ReleaseWorkers();
  for (uint64_t id = 1; id <= 2; ++id) {
    frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(DecodeFrame(frame.value().data(), frame.value().size(), &msg,
                          &reason),
              WireError::kOk);
    EXPECT_EQ(msg.header.request_id, id);
    EXPECT_EQ(msg.header.type, MessageType::kPingReply);
  }
  EXPECT_EQ(fx.server->requests_enqueued(), 2u);
}

TEST(RpcServerTest, UnknownTypeAnswersAndKeepsConnection) {
  Fixture fx(16, 1);
  Result<UniqueFd> conn = ConnectLoopback(fx.server->port());
  ASSERT_TRUE(conn.ok());
  const int fd = conn.value().get();

  std::vector<uint8_t> frame = Encode(21, PingRequest{});
  frame[2] = 31;  // unused request-range type byte
  ASSERT_TRUE(WriteFrame(fd, frame).ok());

  DecodedMessage msg;
  std::string reason;
  Result<std::vector<uint8_t>> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(DecodeFrame(reply.value().data(), reply.value().size(), &msg,
                        &reason),
            WireError::kOk);
  EXPECT_EQ(msg.header.request_id, 21u);
  EXPECT_EQ(msg.header.error, WireError::kUnknownType);

  // The framing is still trustworthy, so the connection survives.
  ASSERT_TRUE(WriteFrame(fd, Encode(22, PingRequest{})).ok());
  reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(DecodeFrame(reply.value().data(), reply.value().size(), &msg,
                        &reason),
            WireError::kOk);
  EXPECT_EQ(msg.header.request_id, 22u);
  EXPECT_EQ(msg.header.type, MessageType::kPingReply);
}

TEST(RpcServerTest, VersionMismatchAnswersThenClosesConnection) {
  Fixture fx(16, 1);
  Result<UniqueFd> conn = ConnectLoopback(fx.server->port());
  ASSERT_TRUE(conn.ok());
  const int fd = conn.value().get();

  std::vector<uint8_t> frame = Encode(33, PingRequest{});
  frame[0] = 9;  // bogus protocol version
  ASSERT_TRUE(WriteFrame(fd, frame).ok());

  DecodedMessage msg;
  std::string reason;
  Result<std::vector<uint8_t>> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(DecodeFrame(reply.value().data(), reply.value().size(), &msg,
                        &reason),
            WireError::kOk);
  EXPECT_EQ(msg.header.request_id, 33u);
  EXPECT_EQ(msg.header.error, WireError::kVersionMismatch);

  // ... and then EOF: a peer speaking the wrong version cannot be framed.
  Result<std::vector<uint8_t>> after = ReadFrame(fd);
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(fx.server->frames_rejected(), 1u);
}

TEST(RpcServerTest, MalformedFrameAnswersRequestIdZeroThenCloses) {
  Fixture fx(16, 1);
  Result<UniqueFd> conn = ConnectLoopback(fx.server->port());
  ASSERT_TRUE(conn.ok());
  const int fd = conn.value().get();

  // 5 bytes of garbage: too short to even recover a request id.
  ASSERT_TRUE(WriteFrame(fd, {0xDE, 0xAD, 0xBE, 0xEF, 0x01}).ok());

  DecodedMessage msg;
  std::string reason;
  Result<std::vector<uint8_t>> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(DecodeFrame(reply.value().data(), reply.value().size(), &msg,
                        &reason),
            WireError::kOk);
  EXPECT_EQ(msg.header.request_id, 0u);
  EXPECT_EQ(msg.header.error, WireError::kMalformedFrame);

  Result<std::vector<uint8_t>> after = ReadFrame(fd);
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace rpc
}  // namespace dgt
