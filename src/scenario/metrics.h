// The scenario engine's report: per-strategy-class accounting
// (ClassMetrics), its per-round series (RoundSnapshot) and the per-phase
// timeline (ScenarioPhaseReport / ScenarioReport).

#ifndef DGT_SCENARIO_METRICS_H_
#define DGT_SCENARIO_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dgt {

// Per-strategy-class transaction accounting. `served` counts downloads
// received by the class; `uploads` counts service the class provided —
// the two sides of the paper's section-3 economics (every download is
// somebody's upload, so free riding is the dominant strategy absent a
// reputation system). `lost` sub-counts the refusals that were actually
// in-flight transfers dropped by a packet-loss window (lost <= refused,
// so requests == served + refused always holds).
struct ClassMetrics {
  uint64_t requests = 0;
  uint64_t served = 0;
  uint64_t refused = 0;
  uint64_t lost = 0;
  uint64_t uploads = 0;
  double satisfaction_sum = 0.0;

  double SuccessRate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(served) / static_cast<double>(requests);
  }
  double MeanSatisfaction() const {
    return served == 0 ? 0.0
                       : satisfaction_sum / static_cast<double>(served);
  }
};

// One transaction round's per-class slice. `newcomer` splits out honest
// peers still inside their assessment window (identity-lifecycle
// scenarios only; it stays zero when no identity ever resets).
struct RoundSnapshot {
  uint32_t round = 0;
  ClassMetrics cooperative;
  ClassMetrics free_rider;
  ClassMetrics colluder;
  ClassMetrics newcomer;
};

// Per-phase slice of a scenario run: the same class split plus the
// phase's lifecycle events and the RMS error of each reputation epoch
// that landed inside the phase (served scores vs. the collusion-free
// reference aggregation; empty unless ScenarioSpec::compute_rms).
struct ScenarioPhaseReport {
  std::string name;
  uint32_t start_round = 0;
  uint32_t end_round = 0;

  ClassMetrics cooperative;
  ClassMetrics free_rider;
  ClassMetrics colluder;
  ClassMetrics newcomer;

  uint32_t identity_resets = 0;   // whitewashing resets
  uint32_t churn_resets = 0;      // scripted churn-burst resets
  uint32_t honest_arrivals = 0;   // organic honest churn
  uint32_t epochs = 0;            // reputation epochs published in-phase
  // Adaptive-adversary toggles observed in-phase: colluders suspended the
  // attack after reading a collapsed admission rate back from the serving
  // layer / resumed it once the served scores forgave (zero unless
  // ScenarioPhase::adaptive_collusion).
  uint32_t adaptive_suspends = 0;
  uint32_t adaptive_resumes = 0;
  std::vector<double> rms;        // one entry per in-phase epoch

  // Async event-driven runs only: request/response round trips completed
  // in-phase, accounted against the link model (a transfer lost in
  // flight never completes a round trip, so it is excluded).
  uint64_t async_rtt_count = 0;
  double async_rtt_sum = 0.0;

  double MeanRequestRtt() const {
    return async_rtt_count == 0
               ? 0.0
               : async_rtt_sum / static_cast<double>(async_rtt_count);
  }

  double MeanRms() const {
    if (rms.empty()) return 0.0;
    double sum = 0.0;
    for (double v : rms) sum += v;
    return sum / static_cast<double>(rms.size());
  }
  double LastRms() const { return rms.empty() ? 0.0 : rms.back(); }
};

struct ScenarioReport {
  // Cumulative over the whole run.
  ClassMetrics cooperative;
  ClassMetrics free_rider;
  ClassMetrics colluder;
  ClassMetrics newcomer;

  std::vector<RoundSnapshot> rounds;        // per-round series
  std::vector<ScenarioPhaseReport> phases;  // per-phase timeline

  uint32_t gossip_rounds = 0;  // epochs served (== final service epoch)
  uint32_t identity_resets = 0;
  uint32_t churn_resets = 0;
  uint32_t honest_arrivals = 0;
  uint32_t adaptive_suspends = 0;
  uint32_t adaptive_resumes = 0;
  uint64_t trust_updates_submitted = 0;

  // Async event-driven runs only (zero in synchronous mode): completed
  // request/response round trips over the link model, and the simulated
  // time of the last processed event.
  uint64_t async_rtt_count = 0;
  double async_rtt_sum = 0.0;
  double async_sim_time = 0.0;

  double MeanRequestRtt() const {
    return async_rtt_count == 0
               ? 0.0
               : async_rtt_sum / static_cast<double>(async_rtt_count);
  }

  // Stranger-policy state at the end of the run (kDirectTrust admission).
  double final_initial_trust = 0.0;
  double final_whitewashing_rate = 0.0;
};

class BenchJsonWriter;

// Appends one flat point per phase to `writer` — the machine-readable
// JSON timeline CI gates (scripts/check_bench_baseline.py: *_requests,
// *_served, *_refused, *_resets, *_arrivals, *_epochs and *_count fields
// are deterministic metrics; *_rms is advisory because it goes through
// libm). `key_fields` (e.g. {{"n", 96}}) are replicated into every point
// so baselines from different configurations can coexist in one file.
void AppendScenarioTimeline(
    const ScenarioReport& report,
    const std::vector<std::pair<std::string, double>>& key_fields,
    BenchJsonWriter* writer);

}  // namespace dgt

#endif  // DGT_SCENARIO_METRICS_H_
