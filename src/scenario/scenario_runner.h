// ScenarioRunner: the one engine behind every adversarial scenario. It
// owns the honest direct-trust state and drives a live ReputationService
// with the spec's scripted, time-varying behaviour:
//
//   - each transaction round, every peer discovers a provider and asks;
//     the provider admits by the spec's policy (served reputation or
//     direct trust) and both sides update direct trust through
//     trust/trust_estimator — or, in ExecutionMode::kAsyncEventDriven,
//     the same transactions arrive on per-peer Poisson timers over the
//     paper's §3 link model, with gossip boundaries and churn bursts as
//     timed events and per-request round-trip latencies accounted;
//   - at every gossip boundary the runner builds the *reported* matrix
//     (collusion-poisoned while a collusion phase is active), diffs it
//     against what the service last saw, streams the difference through
//     the service's bounded MPSC ingest queue (Set + Erase updates), and
//     advances the paced service exactly one epoch — so admission always
//     reads the scores observers would actually be served, not a private
//     batch matrix;
//   - per-phase, per-class metrics (and optionally the RMS error of each
//     epoch against a collusion-free reference aggregation) accumulate
//     into a ScenarioReport.
//
// The paper's stock file-sharing and whitewashing workloads are canned
// specs for this engine (scenario/canned_specs.h).

#ifndef DGT_SCENARIO_SCENARIO_RUNNER_H_
#define DGT_SCENARIO_SCENARIO_RUNNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "reputation/newcomer_policy.h"
#include "reputation/reputation_system.h"
#include "scenario/metrics.h"
#include "scenario/scenario_spec.h"
#include "serve/service.h"
#include "trust/trust_estimator.h"
#include "trust/trust_matrix.h"

namespace dgt {

class ScenarioRunner {
 public:
  // `graph` is borrowed and must outlive the runner. Returned by pointer:
  // the runner holds internal self-references (estimator -> matrix,
  // service wiring) and is neither copyable nor movable.
  static Result<std::unique_ptr<ScenarioRunner>> Create(const Graph* graph,
                                                        ScenarioSpec spec);

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Runs the whole schedule. Call once.
  Status Run();

  const ScenarioReport& report() const { return report_; }
  const ScenarioSpec& spec() const { return spec_; }
  const std::vector<PeerProfile>& profiles() const { return spec_.profiles; }

  // Honest direct-interaction trust (what nodes truly experienced).
  const TrustMatrix& trust() const { return trust_; }
  // The matrix the serving layer last aggregated (collusion-poisoned
  // while a collusion phase was active at the boundary). Empty before
  // the first gossip boundary.
  const TrustMatrix& reported_trust() const { return mirror_; }

  // Latest served snapshot (nullptr before the first epoch).
  std::shared_ptr<const ReputationSnapshot> snapshot() const {
    return snapshot_;
  }
  // Backpressure observability: trust updates the service's bounded MPSC
  // ingest queue rejected (0 without a service). Any rejection also
  // surfaces as a FailedPrecondition from Run() — the runner never
  // silently drops an update.
  uint64_t service_updates_rejected() const {
    return service_ != nullptr ? service_->updates_rejected() : 0;
  }
  // Gossip statistics of the last served epoch (default-constructed
  // before the first).
  GossipRunStats last_round_stats() const;

  const NewcomerPolicy& policy() const { return policy_; }

 private:
  ScenarioRunner(const Graph* graph, ScenarioSpec spec);

  enum class ResetReason { kWhitewash, kHonestArrival, kChurn };

  // What one transaction attempt did — the async loop uses it to account
  // request/response latency against the link model.
  struct TransactionOutcome {
    bool contacted = false;  // a provider was discovered and asked
    NodeId provider = 0;
    bool served = false;
    bool lost = false;
  };

  uint32_t PhaseIndexOf(uint32_t round) const;

  // Whether colluders are attacking right now: the phase schedules the
  // attack AND, for adaptive phases, the adversary has not currently
  // suspended itself to evade detection.
  bool CollusionActiveNow(const ScenarioPhase& phase) const;
  // Reads the colluding set's mean admission rate back from the latest
  // snapshot and applies the adaptive hysteresis (called at every gossip
  // boundary inside an adaptive phase).
  void UpdateAdaptiveAttack(const ScenarioPhase& phase,
                            uint32_t phase_index);

  std::optional<NodeId> DiscoverProvider(NodeId requester);
  bool DecideToServe(NodeId provider, NodeId requester,
                     const ScenarioPhase& phase);
  double StrangerTrust() const;
  double ServedReputation(NodeId observer, NodeId target) const;

  void ResetIdentity(NodeId node, ResetReason reason, uint32_t phase_index);
  Status RunBoundary(uint32_t phase_index);
  Status SubmitReportedDiff(const TrustMatrix& reported);

  // Phase-entry effects shared by both execution modes: the adaptive
  // adversary re-arms and any scripted churn burst fires.
  void EnterPhase(uint32_t phase_index);
  // One transaction attempt by `requester` under `phase_index`'s rules,
  // mutating trust and all three metric scopes (cumulative, phase,
  // `snap`). Both execution modes share this body, so the synchronous
  // path's RNG draw order is exactly the legacy one.
  Result<TransactionOutcome> Transact(NodeId requester, uint32_t phase_index,
                                      RoundSnapshot& snap);
  Status RunSyncRounds();
  Status RunAsyncEvents();

  const Graph* graph_;
  ScenarioSpec spec_;

  TrustMatrix trust_;    // honest direct-interaction trust
  TrustMatrix mirror_;   // reported matrix as the service last saw it
  TrustEstimator estimator_;
  NewcomerPolicy policy_;
  Rng rng_;
  ScenarioReport report_;

  // Normalised schedule: declared phases plus default-behaviour fillers
  // for uncovered round ranges, with end_round resolved. Parallel to
  // report_.phases.
  std::vector<ScenarioPhase> schedule_;
  // Round -> index into schedule_ / report_.phases (1-based rounds).
  std::vector<uint32_t> phase_of_round_;

  std::unique_ptr<ReputationService> service_;
  uint32_t reader_id_ = 0;
  bool service_started_ = false;
  uint64_t last_epoch_ = 0;
  std::shared_ptr<const ReputationSnapshot> snapshot_;

  // Collusion-free reference aggregation for RMS (compute_rms only).
  std::unique_ptr<ReputationSystem> reference_;

  // Adaptive-adversary state: true while the colluders are attacking
  // inside an adaptive phase (reset to true at every phase entry).
  bool adaptive_attack_on_ = true;

  // Identity-lifecycle bookkeeping (lifecycle_enabled).
  std::vector<uint32_t> window_requests_;
  std::vector<uint32_t> window_served_;
  std::vector<uint32_t> rounds_since_join_;

  bool ran_ = false;
};

}  // namespace dgt

#endif  // DGT_SCENARIO_SCENARIO_RUNNER_H_
