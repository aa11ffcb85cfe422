// The adversarial collusion onset -> recovery arc, re-run in the
// scenario engine's async event-driven mode: the same phased spec as
// example_adversarial_scenario, but transaction requests arrive on
// per-peer Poisson timers over the paper's §3 link model (access +
// backbone + access latency), gossip boundaries fire at event time
// feeding the live ReputationService's MPSC ingest queue, and every
// completed request/response round trip is accounted against per-link
// latencies — an OverSim-style workload.
//
// The acceptance arc is the synchronous demo's: collusion onset must
// raise the served-vs-reference RMS error and measurably degrade honest
// peers' service; recovery must bring both back. On top of that the
// async mode must actually have produced latency accounting (nonzero
// round trips with a mean RTT at least the jitter-free floor).
//
// Run: ./example_async_scenario [--smoke] [--out_dir=DIR]

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/bench_output.h"
#include "common/table_writer.h"
#include "graph/pa_generator.h"
#include "scenario/scenario_runner.h"

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const uint32_t n = smoke ? 48 : 96;
  const uint32_t phase_rounds = smoke ? 8 : 12;
  const uint32_t num_rounds = 3 * phase_rounds;

  dgt::PaOptions pa;
  pa.num_nodes = n;
  pa.edges_per_node = 2;
  pa.seed = 71;
  auto graph = dgt::GeneratePreferentialAttachment(pa);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }

  dgt::CollusionConfig cfg;
  cfg.colluding_fraction = 0.25;
  cfg.group_size = 4;
  cfg.seed = 72;
  auto plan = dgt::MakeCollusionPlan(n, cfg);
  if (!plan.ok()) {
    std::cerr << plan.status().ToString() << "\n";
    return 1;
  }
  dgt::ScenarioSpec spec;
  spec.execution = dgt::ExecutionMode::kAsyncEventDriven;
  spec.profiles.resize(n);
  dgt::Rng qrng(73);
  for (dgt::NodeId i = 0; i < n; ++i) {
    spec.profiles[i].strategy = plan->IsColluder(i)
                                    ? dgt::PeerStrategy::kColluder
                                    : dgt::PeerStrategy::kCooperative;
    spec.profiles[i].service_quality = qrng.NextDouble(0.6, 1.0);
  }
  spec.collusion = *plan;
  spec.num_rounds = num_rounds;
  spec.gossip_every = 4;
  spec.reputation.aggregation.gossip.xi = 1e-4;
  spec.compute_rms = true;
  spec.seed = 74;

  dgt::ScenarioPhase pre, attack, recovery;
  pre.name = "pre-attack";
  pre.start_round = 1;
  pre.end_round = phase_rounds;
  attack.name = "collusion";
  attack.start_round = phase_rounds + 1;
  attack.end_round = 2 * phase_rounds;
  attack.collusion_active = true;
  recovery.name = "recovery";
  recovery.start_round = 2 * phase_rounds + 1;
  recovery.end_round = num_rounds;
  spec.phases = {pre, attack, recovery};

  auto runner = dgt::ScenarioRunner::Create(&*graph, spec);
  if (!runner.ok()) {
    std::cerr << runner.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "async scenario: %u peers (%zu colluders in groups of %u), "
      "%u time units, Poisson rate %.2f req/peer/unit, epoch every %u "
      "units, live serving layer\n",
      n, plan->colluders.size(), cfg.group_size, num_rounds,
      spec.async.request_rate, spec.gossip_every);
  if (dgt::Status s = (*runner)->Run(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  const dgt::ScenarioReport& report = (*runner)->report();
  dgt::TableWriter table(
      "\nper-phase view (timer-driven workload over the link model):");
  table.SetHeader({"phase", "windows", "epochs", "coop ok", "colluder ok",
                   "round trips", "mean rtt", "mean rms"});
  for (const auto& phase : report.phases) {
    table.AddRow({phase.name,
                  std::to_string(phase.start_round) + "-" +
                      std::to_string(phase.end_round),
                  std::to_string(phase.epochs),
                  dgt::FormatDouble(phase.cooperative.SuccessRate(), 3),
                  dgt::FormatDouble(phase.colluder.SuccessRate(), 3),
                  std::to_string(phase.async_rtt_count),
                  dgt::FormatDouble(phase.MeanRequestRtt(), 4),
                  dgt::FormatDouble(phase.MeanRms(), 4)});
  }
  table.Print(std::cout);
  std::printf(
      "\nsim time %.2f, %llu trust updates through the ingest queue, "
      "%u epochs, mean request rtt %.4f\n",
      report.async_sim_time,
      static_cast<unsigned long long>(report.trust_updates_submitted),
      report.gossip_rounds, report.MeanRequestRtt());

  // Machine-readable timeline for the CI perf/correctness gate.
  std::string out_dir = dgt::EnsureDir(dgt::ResolveOutDir(argc, argv));
  if (!out_dir.empty()) {
    dgt::BenchJsonWriter writer("async_scenario_smoke", out_dir);
    AppendScenarioTimeline(report, {{"n", static_cast<double>(n)}},
                           &writer);
    writer.Write();
  }

  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "ACCEPTANCE FAILED: %s\n", what);
      ok = false;
    }
  };
  const auto& phases = report.phases;
  expect(phases[0].MeanRms() < 1e-9,
         "pre-attack served scores must match the reference");
  expect(phases[1].MeanRms() > phases[0].MeanRms() + 0.05,
         "collusion onset must raise the RMS error");
  expect(phases[2].MeanRms() < phases[1].MeanRms(),
         "recovery must lower the mean RMS error");
  expect(phases[2].LastRms() < phases[1].LastRms(),
         "recovery must lower the last-epoch RMS error");
  expect(phases[1].cooperative.SuccessRate() <
             phases[0].cooperative.SuccessRate(),
         "the attack must measurably degrade honest peers' service");
  expect(phases[2].cooperative.SuccessRate() >
             phases[1].cooperative.SuccessRate(),
         "recovery must restore honest peers' service");
  expect(report.gossip_rounds == num_rounds / spec.gossip_every,
         "every event-time gossip boundary must publish an epoch");
  expect(report.async_rtt_count > 0,
         "the link model must have accounted request round trips");
  const double rtt_floor = 2.0 * (2.0 * spec.async.link.access_latency_min +
                                  spec.async.link.backbone_latency);
  expect(report.MeanRequestRtt() >= rtt_floor,
         "mean RTT must respect the jitter-free latency floor");
  std::printf("%s\n", ok ? "acceptance criteria hold"
                         : "acceptance criteria VIOLATED");
  return ok ? 0 : 1;
}
