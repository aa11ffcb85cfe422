// Engineering microbenchmarks (google-benchmark): PA generation, gossip
// step throughput, trust-matrix operations, weight evaluation, and the
// exact reference computations. These are not paper artifacts; they track
// the library's own performance.

#include <benchmark/benchmark.h>

#include "baselines/eigen_trust.h"
#include "bench_util.h"
#include "common/rng.h"
#include "gossip/scalar_engine.h"
#include "gossip/sparse_vector_engine.h"
#include "graph/graph_stats.h"
#include "graph/pa_generator.h"
#include "reputation/aggregation.h"
#include "reputation/reference.h"
#include "trust/trust_estimator.h"
#include "trust/weights.h"

namespace {

using namespace dgt;

void BM_PaGeneration(benchmark::State& state) {
  PaOptions o;
  o.num_nodes = static_cast<uint32_t>(state.range(0));
  o.edges_per_node = 2;
  o.seed = 42;
  for (auto _ : state) {
    auto g = GeneratePreferentialAttachment(o);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PaGeneration)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GossipConvergence(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  Rng rng(7);
  std::vector<double> y0(n), g0(n, 1.0);
  for (auto& v : y0) v = rng.NextDouble();
  GossipOptions o;
  o.xi = 1e-4;
  uint64_t seed = 1;
  uint32_t last_steps = 0;
  for (auto _ : state) {
    o.seed = seed++;
    ScalarPushSum engine(&g, o);
    auto r = engine.Run(y0, g0);
    last_steps = r->steps;
    benchmark::DoNotOptimize(r);
  }
  state.counters["steps"] = last_steps;
}
BENCHMARK(BM_GossipConvergence)->Arg(1000)->Arg(10000);

void BM_GossipSingleStep(benchmark::State& state) {
  // Cost of one gossip step, isolated via a max_steps=1 run. Second arg:
  // worker threads (results identical, only wall-clock moves).
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  Rng rng(7);
  std::vector<double> y0(n), g0(n, 1.0);
  for (auto& v : y0) v = rng.NextDouble();
  GossipOptions o;
  o.xi = 1e-12;
  o.max_steps = 1;
  o.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    ScalarPushSum engine(&g, o);
    auto r = engine.Run(y0, g0);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GossipSingleStep)
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({100000, 8});

void BM_SparseVectorGossipStep(benchmark::State& state) {
  // Cost of one vector-gossip step from sparse trust rows, isolated via a
  // max_steps=1 run. Each run scatters its input into N dense rows of N
  // columns, so the per-iteration init copy is O(N^2), the same order as
  // the step's merge (24 bytes per entry with the count channel: 24 MB at
  // N = 1,000, 96 MB at N = 2,000 per state copy).
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
  auto init = BuildGclrSparseInit(t);
  GossipOptions o;
  o.xi = 1e-12;
  o.max_steps = 1;
  o.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    o.seed = seed++;
    SparseVectorPushSum engine(&g, o);
    auto r = engine.Run(init, /*use_count=*/true);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SparseVectorGossipStep)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({2000, 1})
    ->Args({2000, 4});

void BM_SparseGclrVector(benchmark::State& state) {
  // Full variant-4 aggregation through the vector engine, at perfbench
  // gclr_sync's shape: N = 1,000, 20 opinions per node, xi = 1e-3.
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t = bench_util::MakeSparseTrust(n, 20, 11);
  AggregationOptions o;
  o.gossip.xi = 1e-3;
  o.gossip.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t seed = 1;
  for (auto _ : state) {
    o.gossip.seed = seed++;
    auto r = AggregateGclrVector(g, t, o);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SparseGclrVector)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4});

void BM_TrustMatrixSetGet(benchmark::State& state) {
  TrustMatrix t(10000);
  Rng rng(3);
  for (auto _ : state) {
    NodeId i = static_cast<NodeId>(rng.NextBelow(10000));
    NodeId j = static_cast<NodeId>(rng.NextBelow(10000));
    if (i == j) continue;
    benchmark::DoNotOptimize(t.Set(i, j, 0.5));
    benchmark::DoNotOptimize(t.Get(j, i));
  }
}
BENCHMARK(BM_TrustMatrixSetGet);

void BM_WeightEvaluation(benchmark::State& state) {
  WeightParams p;
  p.a = 4.0;
  p.b = 1.0;
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-9;
    if (t > 1.0) t = 0.0;
    benchmark::DoNotOptimize(p.Weight(t));
  }
}
BENCHMARK(BM_WeightEvaluation);

void BM_ExactGclrVector(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t(n);
  Rng rng(7);
  PopulateTrustFromQualities(g, 0.05, rng, &t);
  WeightParams params;
  auto w = WeightTable::Build(t, 0, params).value();
  for (auto _ : state) {
    auto v = ExactGclrVector(t, g, w, DenominatorMode::kOpinators);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactGclrVector)->Arg(1000)->Arg(10000);

void BM_EigenTrust(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  PaOptions po;
  po.num_nodes = n;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  TrustMatrix t(n);
  Rng rng(7);
  PopulateTrustFromQualities(g, 0.05, rng, &t);
  for (auto _ : state) {
    auto r = ComputeEigenTrust(t, {});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EigenTrust)->Arg(1000)->Arg(10000);

void BM_DegreeStats(benchmark::State& state) {
  PaOptions po;
  po.num_nodes = 50000;
  po.edges_per_node = 2;
  po.seed = 42;
  Graph g = GeneratePreferentialAttachment(po).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimatePowerLawExponent(g, 2));
  }
}
BENCHMARK(BM_DegreeStats);

}  // namespace

BENCHMARK_MAIN();
