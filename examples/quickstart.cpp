// Quickstart: build a power-law P2P overlay, fill it with direct trust
// observations, run the differential gossip reputation aggregation
// (variant 4 — globally calibrated local reputation for every node at
// every node), and compare against the exact centralized reference.
//
// Run: ./quickstart [num_nodes]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table_writer.h"
#include "graph/graph_stats.h"
#include "graph/pa_generator.h"
#include "reputation/aggregation.h"
#include "reputation/reference.h"
#include "trust/trust_estimator.h"

int main(int argc, char** argv) {
  const uint32_t n = argc > 1 ? std::atoi(argv[1]) : 256;

  // 1. The overlay: preferential-attachment graph with m = 2 (the paper's
  //    topology model for unstructured P2P networks like Gnutella).
  dgt::PaOptions pa;
  pa.num_nodes = n;
  pa.edges_per_node = 2;
  pa.seed = 42;
  auto graph = dgt::GeneratePreferentialAttachment(pa);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  double alpha = dgt::EstimatePowerLawExponent(*graph, 2);
  std::printf("overlay: N=%u, E=%llu, max degree=%u, power-law alpha=%.2f\n",
              graph->num_nodes(),
              static_cast<unsigned long long>(graph->num_edges()),
              dgt::MaxDegree(*graph), alpha);
  std::vector<uint32_t> degrees(n);
  for (dgt::NodeId u = 0; u < n; ++u) degrees[u] = graph->Degree(u);
  auto ks = dgt::PowerLawKsDistance(degrees, 2, alpha);
  if (ks.ok()) {
    std::printf("degree tail vs fitted power law: KS distance %.3f\n",
                ks.value());
  }

  // 2. Direct trust: each edge endpoint rates the other according to its
  //    intrinsic service quality plus observation noise.
  dgt::TrustMatrix trust(n);
  dgt::Rng rng(7);
  auto quality = dgt::PopulateTrustFromQualities(*graph, 0.05, rng, &trust);
  std::printf("trust: %llu direct opinions recorded\n",
              static_cast<unsigned long long>(trust.TotalOpinions()));

  // 3. Differential gossip aggregation of globally calibrated local
  //    reputation (the paper's variant 4).
  dgt::AggregationOptions opts;
  opts.gossip.strategy = dgt::PushStrategy::kDifferential;
  opts.gossip.xi = 1e-6;
  opts.weights.a = 4.0;  // w = a^(b t): trusted neighbours weigh up to 4x
  opts.weights.b = 1.0;
  auto result = dgt::AggregateGclrVector(*graph, trust, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "aggregation: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("gossip: converged=%s in %u steps, %.2f msgs/node/step\n",
              result->stats.converged ? "yes" : "no", result->stats.steps,
              result->stats.mean_messages_per_active_node_step);

  // 4. Accuracy against the exact centralized GCLR: the gossip must land
  //    on the same values the closed-form formula gives every observer.
  double err_vs_exact = 0.0;
  uint64_t count = 0;
  for (dgt::NodeId i = 0; i < n; ++i) {
    auto w = dgt::WeightTable::Build(trust, i, opts.weights);
    if (!w.ok()) continue;
    for (dgt::NodeId j = 0; j < n; ++j) {
      double exact = dgt::ExactGclr(trust, *graph, *w, j,
                                    dgt::DenominatorMode::kOpinators);
      err_vs_exact += std::abs(result->estimates[i][j] - exact);
      ++count;
    }
  }
  std::printf("accuracy: mean |gossip estimate - exact GCLR| = %.5f over "
              "%llu pairs\n",
              err_vs_exact / count, static_cast<unsigned long long>(count));

  // 5. Show a few nodes the way an application would consume the API.
  dgt::TableWriter table("\nsample of node 0's reputation view:");
  table.SetHeader({"target", "intrinsic q", "node0 estimate", "exact GCLR"});
  auto w0 = dgt::WeightTable::Build(trust, 0, opts.weights);
  for (dgt::NodeId j = 1; j <= 8; ++j) {
    double exact = dgt::ExactGclr(trust, *graph, *w0, j,
                                  dgt::DenominatorMode::kOpinators);
    table.AddRow({std::to_string(j), dgt::FormatDouble(quality[j], 3),
                  dgt::FormatDouble(result->estimates[0][j], 3),
                  dgt::FormatDouble(exact, 3)});
  }
  table.Print(std::cout);
  return 0;
}
