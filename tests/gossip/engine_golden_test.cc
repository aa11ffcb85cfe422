// Golden outputs of the synchronous and event-driven gossip engines and
// the vector aggregation variants built on them. Each case pins the exact
// step (or event) count, message counts, peak sparse state and a 64-bit
// FNV-1a digest of the IEEE-754 bits of every output double, so any change
// to an engine's draw order or floating-point accumulation order fails
// here — even one that moves two code paths the same way and so passes
// the equivalence tests, which only compare paths of the same build
// against each other.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/gossip_trust.h"
#include "gossip/churn_engine.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "net/async_gossip.h"
#include "reputation/aggregation.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::FillTrust;
using testing_util::MakePaGraph;
using testing_util::RandomValues;

// FNV-1a over 64-bit words (doubles contribute their raw bits).
class Digest {
 public:
  void Word(uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Word(bits);
  }
  void Doubles(const std::vector<double>& v) {
    Word(v.size());
    for (double x : v) Double(x);
  }
  std::string Hex() const {
    std::ostringstream os;
    os << std::hex << h_;
    return os.str();
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Summary(uint32_t steps, bool converged, uint64_t gossip,
                    uint64_t control, uint64_t peak_nnz, const Digest& d) {
  std::ostringstream os;
  os << "steps=" << steps << " converged=" << converged
     << " gossip=" << gossip << " control=" << control
     << " peak_nnz=" << peak_nnz << " digest=" << d.Hex();
  return os.str();
}

// --- ScalarPushSum: count channel and per-step trace on ---------------

struct ScalarCase {
  const char* name;
  PushStrategy strategy;
  double loss;
  const char* golden;
};

std::string RunScalar(const Graph& g, const ScalarCase& c,
                      uint32_t threads) {
  const uint32_t n = g.num_nodes();
  std::vector<double> y0 = RandomValues(n, 17);
  std::vector<double> g0(n, 1.0), c0(n, 0.0);
  for (uint32_t i = 0; i < n; i += 3) c0[i] = 1.0;
  GossipOptions o;
  o.strategy = c.strategy;
  o.packet_loss_prob = c.loss;
  o.xi = 1e-6;
  o.seed = 13;
  o.track_trace = true;
  o.num_threads = threads;
  ScalarPushSum engine(&g, o);
  auto r = engine.Run(y0, g0, c0);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "error";
  Digest d;
  d.Doubles(r->ratios);
  d.Doubles(r->values);
  d.Doubles(r->weights);
  d.Doubles(r->counts);
  d.Word(r->trace.size());
  for (const auto& row : r->trace) d.Doubles(row);
  d.Double(r->mean_messages_per_active_node_step);
  return Summary(r->steps, r->converged, r->gossip_messages,
                 r->control_messages, 0, d);
}

TEST(EngineGolden, ScalarPushSum) {
  const ScalarCase cases[] = {
      {"diff_seq_loss20", PushStrategy::kDifferential, 0.2,
       "steps=127 converged=1 gossip=8921 control=500 peak_nnz=0 "
       "digest=436f8019167e2020"},
      {"unif_seq_noloss", PushStrategy::kUniform, 0.0,
       "steps=195 converged=1 gossip=7655 control=250 peak_nnz=0 "
       "digest=7babac5c92e6ba4c"},
  };
  Graph g = MakePaGraph(64, 2, 31);
  for (const ScalarCase& c : cases) {
    for (uint32_t t : {1u, 4u}) {
      EXPECT_EQ(RunScalar(g, c, t), c.golden) << c.name << " T=" << t;
    }
  }
}

TEST(EngineGolden, ScalarPushSumIsolatedAndStrandedNodes) {
  // Node 5 is isolated (stopped before step 1); the path 6-7-8 lets the
  // force-converge pass fire once the hub side stops.
  auto g = Graph::FromEdges(
      9, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}, {6, 7}, {7, 8}});
  ASSERT_TRUE(g.ok());
  const ScalarCase c{"small_components", PushStrategy::kDifferential, 0.0,
                     "steps=60 converged=1 gossip=449 control=28 peak_nnz=0 "
                     "digest=83701a9acd86f058"};
  EXPECT_EQ(RunScalar(*g, c, 1), c.golden);
}

// --- SparseVectorPushSum ----------------------------------------------

// GCLR-shaped rows: sparse opinions (y, count) plus a one-hot diagonal
// weight; without the count channel the opinions carry weight 1 instead.
std::vector<SparseVectorRow> SparseInit(uint32_t n, bool use_count) {
  std::vector<SparseVectorRow> rows(n);
  Rng rng(91);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      double y = 0.0, w = 0.0, c = 0.0;
      if (use_count && i == j) w = 1.0;
      if (i != j && rng.NextBernoulli(0.2)) {
        y = rng.NextDouble();
        if (use_count) {
          c = 1.0;
        } else {
          w = 1.0;
        }
      }
      if (y == 0.0 && w == 0.0 && c == 0.0) continue;
      rows[i].cols.push_back(j);
      rows[i].y.push_back(y);
      rows[i].g.push_back(w);
      if (use_count) rows[i].c.push_back(c);
    }
  }
  return rows;
}

struct SparseCase {
  bool use_count;
  double loss;
  const char* golden;
};

TEST(EngineGolden, SparseVectorPushSum) {
  const uint32_t n = 40;
  Graph g = MakePaGraph(n, 2, 61);
  const SparseCase cases[] = {
      {false, 0.0,
       "steps=112 converged=1 gossip=4787 control=308 peak_nnz=2120 "
       "digest=c087ab6518ab46a3"},
      {false, 0.2,
       "steps=137 converged=1 gossip=6012 control=308 peak_nnz=2040 "
       "digest=767372895cfeda56"},
      {true, 0.0,
       "steps=141 converged=1 gossip=6368 control=308 peak_nnz=2120 "
       "digest=4702ab1b7f6099b3"},
      {true, 0.2,
       "steps=185 converged=1 gossip=8314 control=308 peak_nnz=2040 "
       "digest=bd5fafcfde9a32a1"},
  };
  for (const SparseCase& c : cases) {
    for (uint32_t t : {1u, 4u}) {
      GossipOptions o;
      o.packet_loss_prob = c.loss;
      o.xi = 1e-6;
      o.seed = 7;
      o.num_threads = t;
      SparseVectorPushSum engine(&g, o);
      auto r = engine.Run(SparseInit(n, c.use_count), c.use_count);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Digest d;
      for (const VectorGossipPolicy::Value& row : r->rows) {
        // The pinned view: the columns with gossip weight, each with y/g
        // and, with the count channel, c/g.
        std::vector<uint32_t> cols;
        std::vector<double> estimates, count_estimates;
        for (uint32_t j = 0; j < n; ++j) {
          if (row.g[j] == 0.0) continue;
          cols.push_back(j);
          estimates.push_back(row.y[j] / row.g[j]);
          if (c.use_count) count_estimates.push_back(row.c[j] / row.g[j]);
        }
        d.Word(cols.size());
        for (uint32_t col : cols) d.Word(col);
        d.Doubles(estimates);
        d.Doubles(count_estimates);
      }
      d.Double(r->mean_messages_per_active_node_step);
      EXPECT_EQ(Summary(r->steps, r->converged, r->gossip_messages,
                        r->control_messages, r->peak_state_nonzeros, d),
                c.golden)
          << "count=" << c.use_count << " loss=" << c.loss << " T=" << t;
    }
  }
}

// --- ChurnPushSum -----------------------------------------------------

struct ChurnCase {
  const char* name;
  uint32_t n;
  uint64_t graph_seed;
  uint64_t value_seed;
  double xi;
  uint64_t seed;
  double leave;
  double join;
  uint32_t churn_steps;
  uint64_t churn_seed;
  const char* golden;
};

TEST(EngineGolden, ChurnPushSum) {
  const ChurnCase cases[] = {
      {"join_and_leave", 48, 33, 19, 1e-5, 13, 0.02, 0.5, 20, 7,
       "steps=246 converged=1 gossip=8164 control=323 peak_nnz=0 "
       "digest=8c137b731317c47e"},
      // Departures only, at a rate that makes handover heirs common: pins
      // the evidence of a heir, which measures its first step after the
      // handover from the mass it holds at merge time.
      {"leave_heavy", 120, 102, 2, 1e-4, 2, 0.05, 0.0, 40, 14,
       "steps=40 converged=1 gossip=1874 control=594 peak_nnz=0 "
       "digest=c64a9ffc5701b6d5"},
  };
  for (const ChurnCase& c : cases) {
    Graph g = MakePaGraph(c.n, 2, c.graph_seed);
    for (uint32_t t : {1u, 4u}) {
      GossipOptions o;
      o.packet_loss_prob = 0.1;
      o.xi = c.xi;
      o.seed = c.seed;
      o.num_threads = t;
      ChurnOptions churn;
      churn.leave_prob = c.leave;
      churn.join_rate = c.join;
      churn.churn_steps = c.churn_steps;
      churn.seed = c.churn_seed;
      ChurnPushSum engine(g, o, churn);
      auto r = engine.Run(RandomValues(c.n, c.value_seed),
                          std::vector<double>(c.n, 1.0));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Digest d;
      d.Doubles(r->ratios);
      d.Word(r->alive.size());
      for (uint8_t a : r->alive) d.Word(a);
      d.Word(r->live_count);
      d.Word(r->departures);
      d.Word(r->arrivals);
      d.Double(r->expected_ratio);
      EXPECT_EQ(Summary(r->steps, r->converged, r->gossip_messages,
                        r->control_messages, 0, d),
                c.golden)
          << c.name << " T=" << t;
    }
  }
}

// --- Event-driven engines (net/async_engine.h) ------------------------

// Every AsyncEngineStats field; sim_time goes into the digest.
std::string AsyncSummary(const AsyncEngineStats& s, Digest d) {
  d.Double(s.sim_time);
  std::ostringstream os;
  os << "converged=" << s.converged << " firings=" << s.max_node_firings
     << " events=" << s.events << " gossip=" << s.gossip_messages
     << " control=" << s.control_messages << " digest=" << d.Hex();
  return os.str();
}

TEST(EngineGolden, AsyncPushSum) {
  // A quarter of the nodes start with gossip weight, so early snapshots
  // sit at the ratio sentinel and the convergence test compares with it.
  const uint32_t n = 64;
  Graph g = MakePaGraph(n, 2, 34);
  std::vector<double> g0(n, 0.0);
  for (uint32_t i = 0; i < n; i += 4) g0[i] = 1.0;
  const std::pair<double, const char*> cases[] = {
      {0.0,
       "converged=1 firings=137 events=16897 gossip=8833 control=500 "
       "digest=a5431a760f5c0ab8"},
      {0.1,
       "converged=1 firings=159 events=19035 gossip=10535 control=500 "
       "digest=eff55f055b146090"},
  };
  for (const auto& [loss, golden] : cases) {
    for (uint32_t t : {1u, 4u}) {
      AsyncGossipOptions o;
      o.packet_loss_prob = loss;
      o.xi = 1e-6;
      o.seed = 11;
      o.num_threads = t;
      AsyncPushSum engine(&g, o);
      auto r = engine.Run(RandomValues(n, 23), g0);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Digest d;
      d.Doubles(r->ratios);
      d.Doubles(r->values);
      d.Doubles(r->weights);
      EXPECT_EQ(AsyncSummary(*r, d), golden) << "loss=" << loss << " T=" << t;
    }
  }
}

TEST(EngineGolden, AsyncSparsePushSum) {
  const uint32_t n = 40;
  Graph g = MakePaGraph(n, 2, 61);
  const struct {
    bool use_count;
    double loss;
    const char* golden;
  } cases[] = {
      {false, 0.0,
       "converged=1 firings=96 events=7077 gossip=3710 control=308 "
       "digest=5465e9806fdc5ed2"},
      {true, 0.1,
       "converged=1 firings=129 events=10247 gossip=5753 control=308 "
       "digest=2456ebf7799f1464"},
  };
  for (const auto& c : cases) {
    for (uint32_t t : {1u, 4u}) {
      AsyncGossipOptions o;
      o.packet_loss_prob = c.loss;
      o.xi = 1e-6;
      o.seed = 7;
      o.num_threads = t;
      AsyncSparsePushSum engine(&g, o);
      auto r = engine.Run(SparseInit(n, c.use_count), c.use_count);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Digest d;
      for (const VectorGossipPolicy::Value& row : r->values) {
        // The pinned view: the columns with any channel nonzero.
        SparseVectorRow kept;
        for (uint32_t j = 0; j < n; ++j) {
          const bool count = c.use_count && row.c[j] != 0.0;
          if (row.y[j] == 0.0 && row.g[j] == 0.0 && !count) continue;
          kept.cols.push_back(j);
          kept.y.push_back(row.y[j]);
          kept.g.push_back(row.g[j]);
          if (c.use_count) kept.c.push_back(row.c[j]);
        }
        d.Word(kept.cols.size());
        for (uint32_t col : kept.cols) d.Word(col);
        d.Doubles(kept.y);
        d.Doubles(kept.g);
        d.Doubles(kept.c);
      }
      EXPECT_EQ(AsyncSummary(r->stats, d), c.golden)
          << "count=" << c.use_count << " loss=" << c.loss << " T=" << t;
    }
  }
}

// --- Vector aggregation variants and the GossipTrust baseline ---------

std::string VectorSummary(const std::vector<std::vector<double>>& estimates,
                          const GossipRunStats& s, bool pin_peak_nnz) {
  Digest d;
  d.Word(estimates.size());
  for (const auto& row : estimates) d.Doubles(row);
  d.Double(s.mean_messages_per_active_node_step);
  return Summary(s.steps, s.converged, s.gossip_messages, s.control_messages,
                 pin_peak_nnz ? s.peak_state_nonzeros : 0, d);
}

class AggregationGolden : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 40;
  AggregationGolden() : graph_(MakePaGraph(kN, 2, 72)), trust_(kN) {
    FillTrust(graph_, &trust_, 73);
  }
  AggregationOptions Options(double loss) const {
    AggregationOptions o;
    o.gossip.xi = 1e-7;
    o.gossip.seed = 3;
    o.gossip.packet_loss_prob = loss;
    o.weights.a = 4.0;
    o.weights.b = 1.0;
    return o;
  }
  Graph graph_;
  TrustMatrix trust_;
};

TEST_F(AggregationGolden, GlobalVector) {
  const std::pair<double, const char*> cases[] = {
      {0.0,
       "steps=119 converged=1 gossip=4482 control=308 peak_nnz=2040 "
       "digest=11a8a195b02746d1"},
      {0.2,
       "steps=130 converged=1 gossip=5370 control=308 peak_nnz=2120 "
       "digest=1e9f765d55511522"},
  };
  for (const auto& [loss, golden] : cases) {
    auto r = AggregateGlobalVector(graph_, trust_, Options(loss));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(VectorSummary(r->estimates, r->stats, true), golden)
        << "loss=" << loss;
  }
}

TEST_F(AggregationGolden, GclrVector) {
  const std::pair<double, const char*> cases[] = {
      {0.0,
       "steps=148 converged=1 gossip=6082 control=462 peak_nnz=2080 "
       "digest=37b0524b5cab5685"},
      {0.2,
       "steps=176 converged=1 gossip=7550 control=462 peak_nnz=2120 "
       "digest=23aa2fa2b85f1680"},
  };
  for (const auto& [loss, golden] : cases) {
    AggregationOptions o = Options(loss);
    o.gossip.num_threads = 4;
    auto r = AggregateGclrVector(graph_, trust_, o);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(VectorSummary(r->estimates, r->stats, true), golden)
        << "loss=" << loss;
  }
}

TEST_F(AggregationGolden, GclrVectorAsync) {
  const std::pair<double, const char*> cases[] = {
      {0.0,
       "converged=1 firings=127 events=10234 gossip=5393 control=462 "
       "digest=94a4632c7af4254b"},
      {0.2,
       "converged=1 firings=163 events=11487 gossip=6787 control=462 "
       "digest=1a359abbd7a7b648"},
  };
  for (const auto& [loss, golden] : cases) {
    for (uint32_t t : {1u, 4u}) {
      AsyncAggregationOptions o;
      o.gossip.xi = 1e-7;
      o.gossip.seed = 3;
      o.gossip.packet_loss_prob = loss;
      o.gossip.num_threads = t;
      o.weights.a = 4.0;
      o.weights.b = 1.0;
      auto r = AggregateGclrVectorAsync(graph_, trust_, o);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Digest d;
      d.Word(r->estimates.size());
      for (const auto& row : r->estimates) d.Doubles(row);
      EXPECT_EQ(AsyncSummary(r->stats, d), golden)
          << "loss=" << loss << " T=" << t;
    }
  }
}

TEST_F(AggregationGolden, GossipTrust) {
  // The peak sparse-state figure is not pinned: it describes the engine's
  // storage, not the protocol's outcome.
  const std::pair<double, const char*> cases[] = {
      {0.0,
       "steps=143 converged=1 gossip=4365 control=154 peak_nnz=0 "
       "digest=c6e2c97f60feb976"},
      {0.2,
       "steps=199 converged=1 gossip=5337 control=154 peak_nnz=0 "
       "digest=d8a4aef376c1de4a"},
  };
  for (const auto& [loss, golden] : cases) {
    auto r = AggregateGossipTrust(graph_, trust_, Options(loss));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::vector<double>> all = r->estimates;
    all.push_back(r->global);
    EXPECT_EQ(VectorSummary(all, r->stats, false), golden)
        << "loss=" << loss;
  }
}

}  // namespace
}  // namespace dgt
