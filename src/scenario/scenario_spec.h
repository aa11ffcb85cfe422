// ScenarioSpec: one declarative description of an adversarial scenario —
// a peer population (strategy mix + service qualities), a workload
// (discovery + admission), and a schedule of *phased events* (a collusion
// group that forms at round R and dissolves later, a packet-loss window,
// a churn burst, a whitewashing regime). The paper's evaluation scenarios
// (free riding §1/§4, group collusion §5.2, whitewashing §4.1.2, loss and
// churn §5) each used to be a bespoke closed simulation loop; a spec makes
// every one of them — and their compositions — data handed to one engine
// (ScenarioRunner) that evaluates attacks against the *served* reputations
// of a live ReputationService instead of a private batch matrix.

#ifndef DGT_SCENARIO_SCENARIO_SPEC_H_
#define DGT_SCENARIO_SCENARIO_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collusion/collusion_model.h"
#include "common/status.h"
#include "net/link_model.h"
#include "p2p/peer.h"
#include "reputation/newcomer_policy.h"
#include "reputation/reputation_system.h"
#include "trust/trust_estimator.h"

namespace dgt {

// How the runner advances simulated time.
enum class ExecutionMode {
  // The legacy lock-step loop: every peer has a pending request each
  // round, rounds tick synchronously.
  kSynchronousRounds,
  // OverSim-style timer-driven workload over the paper's §3 link model:
  // transaction requests arrive on independent Poisson timers, gossip
  // boundaries fire at event time, churn bursts land on phase-entry
  // events, and request/response round trips are accounted against
  // per-link latencies. One unit of simulated time is the async analogue
  // of one synchronous round (round r covers time [r-1, r)), so phases
  // and gossip boundaries keep their round arithmetic. Identity
  // lifecycle (whitewashing / honest arrival) is not supported in this
  // mode yet — ValidateScenarioSpec rejects the combination.
  kAsyncEventDriven,
};

// Knobs for ExecutionMode::kAsyncEventDriven; ignored in synchronous
// mode.
struct AsyncWorkloadOptions {
  // Mean transaction requests per peer per unit of simulated time
  // (independent Poisson timers). 1.0 matches the synchronous loop's
  // one-request-per-peer-per-round in expectation.
  double request_rate = 1.0;
  // Per-link latency model (access + backbone + access) used to account
  // request/response round-trip times. Latency draws use the model's own
  // seed-derived stream, never the workload RNG, so latency accounting
  // cannot perturb the workload trajectory.
  LinkModelOptions link;
};

// How a requester finds a provider each round.
enum class DiscoveryMode {
  // TTL-limited query flood over the overlay (p2p/query_flood, the
  // paper's §4 resource discovery); a uniformly random reached holder.
  kQueryFlood,
  // A uniformly random peer other than the requester (the heavily loaded
  // idealisation the whitewashing study uses — discovery is orthogonal
  // to the stranger-trust dial).
  kUniformRandom,
};

// What the provider consults before serving.
enum class AdmissionMode {
  // The provider's served reputation of the requester, read from the
  // ReputationService's epoch snapshots (0 before the first epoch).
  kServedReputation,
  // The provider's direct trust in the requester; strangers get the
  // NewcomerMode policy value instead.
  kDirectTrust,
};

// Stranger-trust dial for kDirectTrust admission (paper §4.1.2; the
// zero/optimistic/adaptive trade-off the whitewashing study measures).
enum class NewcomerMode {
  kZero,
  kOptimistic,
  kAdaptive,
};

// One scripted slice of the run. Phases must be sorted, non-overlapping,
// and inside [1, num_rounds]; rounds not covered by any phase behave as a
// default-constructed phase (no attack, no loss).
struct ScenarioPhase {
  std::string name;
  uint32_t start_round = 1;  // inclusive
  uint32_t end_round = 0;    // inclusive; 0 = to the last round

  // Colluder-strategy peers apply their §5.2 behaviour: serve only group
  // mates and poison their reported rows at every gossip boundary. When
  // inactive they behave (and report) as cooperative peers — that is what
  // makes onset/recovery scenarios expressible.
  bool collusion_active = false;

  // Per-request probability that a granted transfer is lost in flight
  // (counts as a refusal, sub-counted in ClassMetrics::lost; neither side
  // records a rating — no transaction was experienced).
  double packet_loss_prob = 0.0;

  // At phase entry: this fraction of all peers (sampled without
  // replacement) resets identity — a churn burst. Organic, so the
  // newcomer policy records them as honest arrivals.
  double churn_fraction = 0.0;

  // Free riders assess their refusal rate over the spec's assessment
  // window and whitewash (reset identity) when served/requests falls
  // below rejoin_threshold. Requires lifecycle_enabled.
  bool whitewashing_active = false;

  // Adaptive adversary: while this phase schedules the attack
  // (collusion_active must be set), colluders read back the admission
  // rate the serving layer currently implies for them — the mean
  // ExpectedAdmissionRate (serve/query) of the colluding set against the
  // latest snapshot — at every gossip boundary, suspend the attack when
  // that rate falls below adaptive_suspend_below, and resume once it
  // recovers above adaptive_resume_above. The hysteresis makes the
  // attack oscillate: poison, get punished, lie low until the served
  // scores forgive, poison again — the evasion pattern the sweep
  // harness fuzzes for. Requires kServedReputation admission (the
  // feedback signal is a served quantity) and gossip_every > 0.
  bool adaptive_collusion = false;
  double adaptive_suspend_below = 0.2;  // attack off when rate < this
  double adaptive_resume_above = 0.6;   // attack back on when rate >= this
};

struct ScenarioSpec {
  // --- population ---------------------------------------------------
  // One profile per node. Colluder-strategy peers must be covered by
  // `collusion` (group structure): a colluder without a plan has no
  // group to serve and nothing to poison, which always indicates a
  // mis-built spec — ValidateScenarioSpec rejects it.
  std::vector<PeerProfile> profiles;
  std::optional<CollusionPlan> collusion;
  // Reporting mode at gossip boundaries while collusion is active: true =
  // the paper's dense model (explicit 0 about every outsider), false =
  // poison only opinions the colluder already held (sparse).
  bool collusion_report_zero_for_outsiders = true;

  // --- workload ------------------------------------------------------
  ExecutionMode execution = ExecutionMode::kSynchronousRounds;
  AsyncWorkloadOptions async;
  uint32_t num_rounds = 100;
  DiscoveryMode discovery = DiscoveryMode::kQueryFlood;
  uint32_t query_ttl = 3;  // kQueryFlood only

  // --- admission -----------------------------------------------------
  AdmissionMode admission = AdmissionMode::kServedReputation;
  // kServedReputation: reputation >= threshold serves outright, below it
  // with probability rep/threshold. kDirectTrust: always probabilistic,
  // min(1, basis/threshold).
  double serve_threshold = 0.3;
  // kServedReputation bootstrap altruism for total strangers.
  double newcomer_serve_prob = 0.5;
  // kDirectTrust stranger policy.
  NewcomerMode newcomer_mode = NewcomerMode::kZero;
  NewcomerPolicyOptions newcomer_policy;

  // --- trust economy -------------------------------------------------
  double satisfaction_noise = 0.05;
  TrustEstimatorOptions trust;
  // Requester records an explicit refusal score about a refusing
  // provider (file-sharing economics; off in the whitewashing study
  // where only the provider-side rating matters).
  bool requester_records_refusals = true;
  // Provider rates the requester's cooperativeness after each encounter
  // (reciprocity — how free riders' trust burns down).
  bool rate_requester = false;
  // Weight applied to that reciprocity rating when the request was
  // refused: no transaction was completed, so the encounter carries much
  // less information than a served one. 0 records nothing on refusal;
  // 1.0 reproduces the original whitewashing study's accounting, in which
  // refusals built full-strength trust.
  double refused_reciprocity_weight = 0.25;

  // --- identity lifecycle (whitewashing / churn economics) -----------
  bool lifecycle_enabled = false;
  double rejoin_threshold = 0.25;
  uint32_t assessment_window = 10;
  // Per-round probability that a random honest peer is replaced by a
  // fresh honest identity (organic churn the stranger policy must not
  // punish). Only drawn when lifecycle_enabled.
  double honest_arrival_prob = 0.0;

  // --- reputation rounds ---------------------------------------------
  // A service epoch (fold queued TrustUpdates -> aggregation round ->
  // snapshot publish) runs after every `gossip_every` transaction rounds;
  // 0 disables the reputation system entirely.
  uint32_t gossip_every = 10;
  ReputationSystemOptions reputation;
  // Also run a collusion-free reference aggregation each epoch and record
  // the per-phase RMS error (collusion/rms_error) of the served scores
  // against it. Doubles aggregation cost; reference gossip uses its own
  // seeds, so enabling it never perturbs the workload trajectory.
  bool compute_rms = false;
  // Capacity override for the service's bounded trust-update ingest
  // queue. 0 (the default) sizes it so a full-matrix diff can never hit
  // backpressure mid-boundary (n^2, floor 4096). A small explicit value
  // makes an erase-heavy boundary overflow the queue, which the runner
  // surfaces as a FailedPrecondition from Run() — never a silent drop
  // (tests/scenario/mpsc_backpressure_test.cc).
  size_t update_queue_capacity = 0;

  // --- schedule ------------------------------------------------------
  std::vector<ScenarioPhase> phases;

  uint64_t seed = 1;
};

// Validates a spec against a population size (phase ordering and bounds,
// probability ranges, mode-specific requirements). ScenarioRunner::Create
// calls this; exposed for spec-building code that wants early errors.
Status ValidateScenarioSpec(const ScenarioSpec& spec, uint32_t num_nodes);

}  // namespace dgt

#endif  // DGT_SCENARIO_SCENARIO_SPEC_H_
