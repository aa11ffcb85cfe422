// File-sharing scenario: the workload the paper's introduction motivates.
// A population with free riders shares files over a PA overlay; the
// differential-gossip reputation system periodically aggregates trust, and
// providers serve requesters according to reputation. Watch free riders'
// download success collapse while cooperative peers keep being served.
//
// Run: ./file_sharing [num_nodes] [free_rider_fraction]

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/table_writer.h"
#include "graph/pa_generator.h"
#include "scenario/canned_specs.h"
#include "scenario/scenario_runner.h"

int main(int argc, char** argv) {
  const uint32_t n = argc > 1 ? std::atoi(argv[1]) : 128;
  const double free_riders = argc > 2 ? std::atof(argv[2]) : 0.3;

  dgt::PaOptions pa;
  pa.num_nodes = n;
  pa.edges_per_node = 2;
  pa.seed = 21;
  auto graph = dgt::GeneratePreferentialAttachment(pa);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }

  dgt::Rng rng(22);
  dgt::PopulationMix mix;
  mix.free_rider_fraction = free_riders;
  mix.min_quality = 0.6;
  auto peers = dgt::MakePopulation(n, mix, rng);
  auto fr = dgt::PeersWithStrategy(peers, dgt::PeerStrategy::kFreeRider);
  std::cout << "population: " << n << " peers, " << fr.size()
            << " free riders\n";

  dgt::ScenarioSpec spec = dgt::FileSharingScenarioSpec(peers);
  spec.num_rounds = 80;
  spec.gossip_every = 10;  // a reputation round every 10 transaction rounds
  spec.serve_threshold = 0.3;
  spec.newcomer_serve_prob = 0.5;
  spec.reputation.aggregation.gossip.xi = 1e-6;
  spec.seed = 23;

  auto runner = dgt::ScenarioRunner::Create(&*graph, std::move(spec));
  if (!runner.ok()) {
    std::cerr << runner.status().ToString() << "\n";
    return 1;
  }
  if (dgt::Status s = (*runner)->Run(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  const auto& report = (*runner)->report();
  dgt::TableWriter table("\ndownload success rate by phase:");
  table.SetHeader({"rounds", "cooperative", "free riders"});
  for (size_t phase = 0; phase < report.rounds.size(); phase += 10) {
    dgt::ClassMetrics coop, frm;
    for (size_t i = phase; i < std::min(phase + 10, report.rounds.size());
         ++i) {
      coop.requests += report.rounds[i].cooperative.requests;
      coop.served += report.rounds[i].cooperative.served;
      frm.requests += report.rounds[i].free_rider.requests;
      frm.served += report.rounds[i].free_rider.served;
    }
    table.AddRow({std::to_string(phase + 1) + "-" +
                      std::to_string(phase + 10),
                  dgt::FormatDouble(coop.SuccessRate(), 3),
                  dgt::FormatDouble(frm.SuccessRate(), 3)});
  }
  table.Print(std::cout);

  std::cout << "\ncumulative: cooperative success="
            << dgt::FormatDouble(report.cooperative.SuccessRate(), 3)
            << " (mean satisfaction "
            << dgt::FormatDouble(report.cooperative.MeanSatisfaction(), 3)
            << "), free rider success="
            << dgt::FormatDouble(report.free_rider.SuccessRate(), 3)
            << "\nreputation rounds run: " << report.gossip_rounds
            << ", last round: " << (*runner)->last_round_stats().steps
            << " gossip steps\n";
  return 0;
}
