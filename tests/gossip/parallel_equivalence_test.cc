// ParallelSerialEquivalence: the load-bearing guarantee of the threaded
// execution layer — for every engine, both push strategies, and with and
// without packet loss, a run at T ∈ {2, 4, 8} worker threads is
// EXPECT_EQ-on-doubles identical to the 1-thread run (which is itself
// bit-for-bit the historical serial engine). Mirrors the sparse/dense
// equivalence sweep, one dimension up; the dense legs run the test-only
// dense reference policy through the same executors.

#include <tuple>
#include <vector>

#include "dense_vector_policy.h"
#include "gossip/churn_engine.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "net/async_gossip.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::DenseValues;
using testing_util::DenseVectorPolicy;
using testing_util::MakePaGraph;
using testing_util::RandomValues;
using testing_util::RunDense;
using testing_util::SparseFromDense;

constexpr uint32_t kThreadCounts[] = {2, 4, 8};

using SweepParam = std::tuple<PushStrategy, double>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  auto [strategy, loss] = info.param;
  std::string name =
      strategy == PushStrategy::kDifferential ? "Diff" : "Unif";
  name += loss == 0.0 ? "NoLoss" : "Loss20";
  return name;
}

GossipOptions BaseOptions(SweepParam param) {
  auto [strategy, loss] = param;
  GossipOptions o;
  o.strategy = strategy;
  o.packet_loss_prob = loss;
  o.xi = 1e-6;
  o.seed = 13;
  o.max_steps = 200000;
  return o;
}

class ParallelSerialEquivalence : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(ParallelSerialEquivalence, ScalarEngine) {
  const uint32_t n = 64;
  Graph g = MakePaGraph(n, 2, 31);
  auto y0 = RandomValues(n, 17);
  std::vector<double> g0(n, 1.0), c0(n, 1.0);

  GossipOptions o = BaseOptions(GetParam());
  o.num_threads = 1;
  ScalarPushSum serial(&g, o);
  auto base = serial.Run(y0, g0, c0);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  for (uint32_t t : kThreadCounts) {
    o.num_threads = t;
    ScalarPushSum engine(&g, o);
    auto r = engine.Run(y0, g0, c0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ratios, base->ratios) << "T=" << t;
    EXPECT_EQ(r->values, base->values) << "T=" << t;
    EXPECT_EQ(r->weights, base->weights) << "T=" << t;
    EXPECT_EQ(r->counts, base->counts) << "T=" << t;
    EXPECT_EQ(r->steps, base->steps) << "T=" << t;
    EXPECT_EQ(r->converged, base->converged) << "T=" << t;
    EXPECT_EQ(r->gossip_messages, base->gossip_messages) << "T=" << t;
    EXPECT_EQ(r->control_messages, base->control_messages) << "T=" << t;
    EXPECT_EQ(r->mean_messages_per_active_node_step,
              base->mean_messages_per_active_node_step)
        << "T=" << t;
  }
}

TEST_P(ParallelSerialEquivalence, DenseAndSparseVectorEngines) {
  const uint32_t n = 24;
  Graph g = MakePaGraph(n, 2, 32);

  // GCLR-shaped state (sparse opinions, one-hot diagonal weight, count
  // channel) — the hardest case, exercising all three channels.
  std::vector<std::vector<double>> y0(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> g0(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> c0(n, std::vector<double>(n, 0.0));
  Rng rng(55);
  for (uint32_t i = 0; i < n; ++i) {
    g0[i][i] = 1.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.NextBernoulli(0.25)) {
        y0[i][j] = rng.NextDouble();
        c0[i][j] = 1.0;
      }
    }
  }
  const std::vector<SparseVectorRow> sparse_init = SparseFromDense(y0, g0, c0);

  GossipOptions o = BaseOptions(GetParam());
  o.xi = 1e-5;
  o.num_threads = 1;
  auto dense_base = RunDense(g, o, DenseValues(y0, g0, c0), true);
  ASSERT_TRUE(dense_base.ok()) << dense_base.status().ToString();
  SparseVectorPushSum sparse_serial(&g, o);
  auto sparse_base = sparse_serial.Run(sparse_init, /*use_count=*/true);
  ASSERT_TRUE(sparse_base.ok()) << sparse_base.status().ToString();

  for (uint32_t t : kThreadCounts) {
    o.num_threads = t;
    auto dr = RunDense(g, o, DenseValues(y0, g0, c0), true);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(dr->state[i].y, dense_base->state[i].y) << "T=" << t;
      EXPECT_EQ(dr->state[i].g, dense_base->state[i].g) << "T=" << t;
      EXPECT_EQ(dr->state[i].c, dense_base->state[i].c) << "T=" << t;
    }
    EXPECT_EQ(dr->stats.steps, dense_base->stats.steps) << "T=" << t;
    EXPECT_EQ(dr->stats.gossip_messages, dense_base->stats.gossip_messages)
        << "T=" << t;
    EXPECT_EQ(dr->stats.control_messages, dense_base->stats.control_messages)
        << "T=" << t;

    SparseVectorPushSum sparse(&g, o);
    auto sr = sparse.Run(sparse_init, /*use_count=*/true);
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    ASSERT_EQ(sr->rows.size(), sparse_base->rows.size());
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(sr->rows[i].y, sparse_base->rows[i].y) << "T=" << t;
      EXPECT_EQ(sr->rows[i].g, sparse_base->rows[i].g) << "T=" << t;
      EXPECT_EQ(sr->rows[i].c, sparse_base->rows[i].c) << "T=" << t;
    }
    EXPECT_EQ(sr->steps, sparse_base->steps) << "T=" << t;
    EXPECT_EQ(sr->gossip_messages, sparse_base->gossip_messages) << "T=" << t;
    EXPECT_EQ(sr->control_messages, sparse_base->control_messages)
        << "T=" << t;
    // The serial-replay accounting makes even the memory metric
    // thread-count invariant.
    EXPECT_EQ(sr->peak_state_nonzeros, sparse_base->peak_state_nonzeros)
        << "T=" << t;
  }
}

TEST_P(ParallelSerialEquivalence, ChurnEngine) {
  const uint32_t n = 48;
  Graph g = MakePaGraph(n, 2, 33);
  auto y0 = RandomValues(n, 19);
  std::vector<double> g0(n, 1.0);

  GossipOptions o = BaseOptions(GetParam());
  o.xi = 1e-5;
  ChurnOptions churn;
  churn.leave_prob = 0.01;
  churn.join_rate = 0.5;
  churn.churn_steps = 20;
  churn.seed = 7;

  o.num_threads = 1;
  ChurnPushSum serial(g, o, churn);
  auto base = serial.Run(y0, g0);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  for (uint32_t t : kThreadCounts) {
    o.num_threads = t;
    ChurnPushSum engine(g, o, churn);
    auto r = engine.Run(y0, g0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ratios, base->ratios) << "T=" << t;
    EXPECT_EQ(r->alive, base->alive) << "T=" << t;
    EXPECT_EQ(r->live_count, base->live_count) << "T=" << t;
    EXPECT_EQ(r->departures, base->departures) << "T=" << t;
    EXPECT_EQ(r->arrivals, base->arrivals) << "T=" << t;
    EXPECT_EQ(r->expected_ratio, base->expected_ratio) << "T=" << t;
    EXPECT_EQ(r->steps, base->steps) << "T=" << t;
    EXPECT_EQ(r->gossip_messages, base->gossip_messages) << "T=" << t;
    EXPECT_EQ(r->control_messages, base->control_messages) << "T=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ParallelSerialEquivalence,
    ::testing::Combine(::testing::Values(PushStrategy::kUniform,
                                         PushStrategy::kDifferential),
                       ::testing::Values(0.0, 0.2)),
    SweepName);

// The event-driven engine's windowed lookahead executor: a run at any
// thread count (0 = auto included) is EXPECT_EQ-on-doubles identical to
// the 1-thread run, for every value policy — the async analogue of
// the synchronous sweep above, and the retirement of the old "serialised
// engine" InvalidArgument on num_threads.
TEST(AsyncEquivalence, ScalarPolicyThreadCountInvariant) {
  const uint32_t n = 48;
  Graph g = MakePaGraph(n, 2, 34);
  auto y0 = RandomValues(n, 23);
  std::vector<double> g0(n, 1.0);

  AsyncGossipOptions o;
  o.xi = 1e-5;
  o.seed = 11;
  o.packet_loss_prob = 0.1;  // exercise the loss/bounce path too
  o.num_threads = 1;
  AsyncPushSum serial(&g, o);
  auto base = serial.Run(y0, g0);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base->converged);

  for (uint32_t t : {uint32_t{0}, uint32_t{2}, uint32_t{4}, uint32_t{8}}) {
    o.num_threads = t;
    AsyncPushSum engine(&g, o);
    auto r = engine.Run(y0, g0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ratios, base->ratios) << "T=" << t;
    EXPECT_EQ(r->values, base->values) << "T=" << t;
    EXPECT_EQ(r->weights, base->weights) << "T=" << t;
    EXPECT_EQ(r->converged, base->converged) << "T=" << t;
    EXPECT_EQ(r->sim_time, base->sim_time) << "T=" << t;
    EXPECT_EQ(r->gossip_messages, base->gossip_messages) << "T=" << t;
    EXPECT_EQ(r->control_messages, base->control_messages) << "T=" << t;
    EXPECT_EQ(r->events, base->events) << "T=" << t;
    EXPECT_EQ(r->max_node_firings, base->max_node_firings) << "T=" << t;
  }
}

// Tied event times, where only the heap seq orders a node's events and
// the seq comes from the canonical commit. Start offsets are random, so
// zero jitter alone ties nothing; instead the links are so much slower
// than the time cap that every share sent lands at one instant
// (t + 1e17 rounds to 1e17 for every t < 8) and each receiver absorbs its
// shares in seq order. Committing the shard outputs in any other order
// than ascending owner changes some of the sums.
TEST(AsyncEquivalence, TiedEventTimesThreadCountInvariant) {
  const uint32_t n = 48;
  Graph g = MakePaGraph(n, 2, 34);
  auto y0 = RandomValues(n, 23);
  std::vector<double> g0(n, 1.0);

  AsyncGossipOptions o;
  o.xi = 1e-5;
  o.seed = 11;
  o.max_time = 8.0;
  o.link.backbone_latency = 1e17;
  o.num_threads = 1;
  auto base = AsyncPushSum(&g, o).Run(y0, g0);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  // Nothing arrives before the cap, so no node can converge.
  ASSERT_FALSE(base->converged);

  for (uint32_t t : kThreadCounts) {
    o.num_threads = t;
    auto r = AsyncPushSum(&g, o).Run(y0, g0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->values, base->values) << "T=" << t;
    EXPECT_EQ(r->weights, base->weights) << "T=" << t;
    EXPECT_EQ(r->gossip_messages, base->gossip_messages) << "T=" << t;
    EXPECT_EQ(r->events, base->events) << "T=" << t;
  }
}

TEST(AsyncEquivalence, VectorAndSparsePoliciesThreadCountInvariant) {
  const uint32_t n = 20;
  Graph g = MakePaGraph(n, 2, 36);

  // GCLR-shaped state (sparse opinions, one-hot diagonal weight, count
  // channel), mirroring the synchronous sweep's hardest case.
  std::vector<std::vector<double>> y0(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> g0(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> c0(n, std::vector<double>(n, 0.0));
  Rng rng(56);
  for (uint32_t i = 0; i < n; ++i) {
    g0[i][i] = 1.0;
    for (uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.NextBernoulli(0.25)) {
        y0[i][j] = rng.NextDouble();
        c0[i][j] = 1.0;
      }
    }
  }
  const std::vector<SparseVectorRow> sparse_init = SparseFromDense(y0, g0, c0);

  AsyncGossipOptions o;
  o.xi = 1e-4;
  o.seed = 12;
  o.num_threads = 1;
  AsyncEventEngine<DenseVectorPolicy> dense_serial(&g, o);
  auto dense_base = dense_serial.Run(DenseValues(y0, g0, c0));
  ASSERT_TRUE(dense_base.ok()) << dense_base.status().ToString();
  AsyncSparsePushSum sparse_serial(&g, o);
  auto sparse_base = sparse_serial.Run(sparse_init, /*use_count=*/true);
  ASSERT_TRUE(sparse_base.ok()) << sparse_base.status().ToString();
  ASSERT_TRUE(sparse_base->stats.converged);

  for (uint32_t t : kThreadCounts) {
    o.num_threads = t;
    AsyncEventEngine<DenseVectorPolicy> dense(&g, o);
    auto dr = dense.Run(DenseValues(y0, g0, c0));
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(dr->values[i].y, dense_base->values[i].y) << "T=" << t;
      EXPECT_EQ(dr->values[i].g, dense_base->values[i].g) << "T=" << t;
      EXPECT_EQ(dr->values[i].c, dense_base->values[i].c) << "T=" << t;
    }
    EXPECT_EQ(dr->stats.sim_time, dense_base->stats.sim_time) << "T=" << t;
    EXPECT_EQ(dr->stats.gossip_messages, dense_base->stats.gossip_messages)
        << "T=" << t;
    EXPECT_EQ(dr->stats.events, dense_base->stats.events) << "T=" << t;

    AsyncSparsePushSum sparse(&g, o);
    auto sr = sparse.Run(sparse_init, /*use_count=*/true);
    ASSERT_TRUE(sr.ok()) << sr.status().ToString();
    ASSERT_EQ(sr->values.size(), sparse_base->values.size());
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_EQ(sr->values[i].y, sparse_base->values[i].y) << "T=" << t;
      EXPECT_EQ(sr->values[i].g, sparse_base->values[i].g) << "T=" << t;
      EXPECT_EQ(sr->values[i].c, sparse_base->values[i].c) << "T=" << t;
    }
    EXPECT_EQ(sr->stats.converged, sparse_base->stats.converged) << "T=" << t;
    EXPECT_EQ(sr->stats.sim_time, sparse_base->stats.sim_time) << "T=" << t;
    EXPECT_EQ(sr->stats.gossip_messages, sparse_base->stats.gossip_messages)
        << "T=" << t;
    EXPECT_EQ(sr->stats.control_messages, sparse_base->stats.control_messages)
        << "T=" << t;
    EXPECT_EQ(sr->stats.events, sparse_base->stats.events) << "T=" << t;
    EXPECT_EQ(sr->stats.max_node_firings, sparse_base->stats.max_node_firings)
        << "T=" << t;
  }
}

}  // namespace
}  // namespace dgt
