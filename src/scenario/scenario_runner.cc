#include "scenario/scenario_runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "collusion/rms_error.h"
#include "net/event_queue.h"
#include "net/link_model.h"
#include "p2p/query_flood.h"
#include "serve/query.h"

namespace dgt {

namespace {

// A node that has never reset counts as "joined long ago" — it must not
// classify as a newcomer.
constexpr uint32_t kJoinedLongAgo = 1000000;

enum class MetricClass { kCooperative, kFreeRider, kColluder, kNewcomer };

template <typename Holder>
ClassMetrics& PickClass(Holder& holder, MetricClass c) {
  switch (c) {
    case MetricClass::kFreeRider:
      return holder.free_rider;
    case MetricClass::kColluder:
      return holder.colluder;
    case MetricClass::kNewcomer:
      return holder.newcomer;
    case MetricClass::kCooperative:
      break;
  }
  return holder.cooperative;
}

}  // namespace

Result<std::unique_ptr<ScenarioRunner>> ScenarioRunner::Create(
    const Graph* graph, ScenarioSpec spec) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  DGT_RETURN_IF_ERROR(ValidateScenarioSpec(spec, graph->num_nodes()));
  return std::unique_ptr<ScenarioRunner>(
      new ScenarioRunner(graph, std::move(spec)));
}

ScenarioRunner::ScenarioRunner(const Graph* graph, ScenarioSpec spec)
    : graph_(graph),
      spec_(std::move(spec)),
      trust_(graph->num_nodes()),
      mirror_(graph->num_nodes()),
      estimator_(&trust_, spec_.trust),
      policy_(spec_.newcomer_policy),
      rng_(spec_.seed),
      window_requests_(graph->num_nodes(), 0),
      window_served_(graph->num_nodes(), 0),
      rounds_since_join_(graph->num_nodes(), kJoinedLongAgo) {
  // Normalise the schedule: declared phases in order, default-behaviour
  // fillers for uncovered round ranges, and a round -> phase-index map.
  phase_of_round_.assign(spec_.num_rounds + 1, 0);
  auto add_phase = [&](ScenarioPhase phase, uint32_t start, uint32_t end) {
    phase.start_round = start;
    phase.end_round = end;
    const uint32_t index = static_cast<uint32_t>(schedule_.size());
    for (uint32_t r = start; r <= end; ++r) phase_of_round_[r] = index;
    ScenarioPhaseReport report;
    report.name = phase.name;
    report.start_round = start;
    report.end_round = end;
    report_.phases.push_back(std::move(report));
    schedule_.push_back(std::move(phase));
  };
  uint32_t next_round = 1;
  for (const ScenarioPhase& phase : spec_.phases) {
    const uint32_t end =
        phase.end_round == 0 ? spec_.num_rounds : phase.end_round;
    if (phase.start_round > next_round) {
      ScenarioPhase filler;
      filler.name = "(unscripted)";
      add_phase(filler, next_round, phase.start_round - 1);
    }
    add_phase(phase, phase.start_round, end);
    next_round = end + 1;
  }
  if (next_round <= spec_.num_rounds) {
    ScenarioPhase filler;
    filler.name = "(unscripted)";
    add_phase(filler, next_round, spec_.num_rounds);
  }

  const uint32_t n = graph_->num_nodes();
  const uint32_t boundaries =
      spec_.gossip_every > 0 ? spec_.num_rounds / spec_.gossip_every : 0;
  if (boundaries > 0) {
    ReputationServiceOptions options;
    options.system = spec_.reputation;
    options.num_rounds = boundaries;
    // Paced: the runner is the single registered reader, so the service
    // advances exactly one epoch per gossip boundary, in lock-step with
    // the workload.
    options.paced = true;
    options.read_shards = 1;
    // Each boundary submits at most one update per (i, j) pair (a Set or
    // an Erase, never both); by default size the ingest queue so a
    // full-matrix diff can never hit backpressure mid-boundary. A spec
    // may override the capacity downward to exercise the backpressure
    // path deliberately.
    options.update_queue_capacity =
        spec_.update_queue_capacity > 0
            ? spec_.update_queue_capacity
            : std::max<size_t>(
                  4096, static_cast<size_t>(n) * static_cast<size_t>(n));
    service_ = std::make_unique<ReputationService>(graph_, TrustMatrix(n),
                                                   options);
    reader_id_ = service_->RegisterReader();
    if (spec_.compute_rms) {
      // Collusion-free reference: same aggregation options and per-round
      // seeds over the *honest* matrix. Its gossip RNG derives from
      // ReputationSystemOptions::base_seed, never from rng_, so enabling
      // RMS cannot perturb the workload trajectory.
      reference_ = std::make_unique<ReputationSystem>(graph_, &trust_,
                                                      spec_.reputation);
    }
  }
}

uint32_t ScenarioRunner::PhaseIndexOf(uint32_t round) const {
  return phase_of_round_[round];
}

std::optional<NodeId> ScenarioRunner::DiscoverProvider(NodeId requester) {
  if (spec_.discovery == DiscoveryMode::kQueryFlood) {
    // TTL-limited query flood; every reached node is a candidate provider
    // ("data of interest is always available").
    Result<QueryResult> q =
        FloodQueryAllHolders(*graph_, requester, spec_.query_ttl);
    if (!q.ok() || q->providers.empty()) return std::nullopt;
    return q->providers[rng_.NextBelow(q->providers.size())];
  }
  const uint32_t n = graph_->num_nodes();
  if (n < 2) return std::nullopt;
  NodeId provider = requester;
  while (provider == requester) {
    provider = static_cast<NodeId>(rng_.NextBelow(n));
  }
  return provider;
}

double ScenarioRunner::StrangerTrust() const {
  switch (spec_.newcomer_mode) {
    case NewcomerMode::kZero:
      return 0.0;
    case NewcomerMode::kOptimistic:
      return spec_.newcomer_policy.optimistic_initial;
    case NewcomerMode::kAdaptive:
      return policy_.InitialTrust();
  }
  return 0.0;
}

double ScenarioRunner::ServedReputation(NodeId observer,
                                        NodeId target) const {
  // Before the first epoch nothing has been aggregated; every served
  // reputation is 0, exactly as an empty reported matrix would score.
  if (snapshot_ == nullptr) return 0.0;
  return snapshot_->scores[observer][target];
}

bool ScenarioRunner::CollusionActiveNow(const ScenarioPhase& phase) const {
  return phase.collusion_active &&
         (!phase.adaptive_collusion || adaptive_attack_on_);
}

void ScenarioRunner::UpdateAdaptiveAttack(const ScenarioPhase& phase,
                                          uint32_t phase_index) {
  if (!phase.adaptive_collusion || !spec_.collusion.has_value() ||
      snapshot_ == nullptr) {
    return;
  }
  // The adversary's feedback signal: what the serving layer would admit
  // of its members right now, on average. Read through the same served
  // snapshot every honest provider consults — no private state.
  double sum = 0.0;
  uint32_t count = 0;
  for (NodeId c : spec_.collusion->colluders) {
    Result<double> rate =
        ExpectedAdmissionRate(*snapshot_, c, spec_.serve_threshold);
    if (!rate.ok()) continue;  // unreachable for a validated spec
    sum += *rate;
    ++count;
  }
  if (count == 0) return;
  const double mean = sum / static_cast<double>(count);
  ScenarioPhaseReport& phase_report = report_.phases[phase_index];
  if (adaptive_attack_on_ && mean < phase.adaptive_suspend_below) {
    adaptive_attack_on_ = false;
    ++phase_report.adaptive_suspends;
    ++report_.adaptive_suspends;
  } else if (!adaptive_attack_on_ && mean >= phase.adaptive_resume_above) {
    adaptive_attack_on_ = true;
    ++phase_report.adaptive_resumes;
    ++report_.adaptive_resumes;
  }
}

bool ScenarioRunner::DecideToServe(NodeId provider, NodeId requester,
                                   const ScenarioPhase& phase) {
  const PeerProfile& p = spec_.profiles[provider];
  if (p.strategy == PeerStrategy::kFreeRider) return false;
  if (p.strategy == PeerStrategy::kColluder && CollusionActiveNow(phase)) {
    // Colluders serve only their group mates while the attack is on;
    // outside attack phases (or while adaptively lying low) they behave
    // as cooperative peers.
    return spec_.collusion.has_value() &&
           spec_.collusion->SameGroup(provider, requester);
  }

  if (spec_.admission == AdmissionMode::kServedReputation) {
    const double rep = ServedReputation(provider, requester);
    const bool knows_directly = trust_.HasOpinion(provider, requester);
    if (rep <= 0.0 && !knows_directly) {
      // Total stranger: bootstrap altruism.
      return rng_.NextBernoulli(spec_.newcomer_serve_prob);
    }
    if (rep >= spec_.serve_threshold) return true;
    return rng_.NextBernoulli(rep / spec_.serve_threshold);
  }

  // kDirectTrust: the provider's own experience, or the stranger policy.
  const double basis = trust_.HasOpinion(provider, requester)
                           ? trust_.Get(provider, requester)
                           : StrangerTrust();
  return rng_.NextBernoulli(
      std::min(1.0, basis / spec_.serve_threshold));
}

void ScenarioRunner::ResetIdentity(NodeId node, ResetReason reason,
                                   uint32_t phase_index) {
  // Fresh identity: nobody remembers it and it remembers nobody. The
  // serving layer forgets at the next gossip boundary, when the diff
  // against the reported mirror turns these erasures into
  // SubmitTrustErase retractions.
  for (NodeId i = 0; i < trust_.num_nodes(); ++i) {
    trust_.Erase(i, node);
    trust_.Erase(node, i);
  }
  window_requests_[node] = 0;
  window_served_[node] = 0;
  rounds_since_join_[node] = 0;
  ScenarioPhaseReport& phase = report_.phases[phase_index];
  switch (reason) {
    case ResetReason::kWhitewash:
      ++report_.identity_resets;
      ++phase.identity_resets;
      policy_.RecordArrival(/*was_whitewasher=*/true);
      break;
    case ResetReason::kHonestArrival:
      ++report_.honest_arrivals;
      ++phase.honest_arrivals;
      policy_.RecordArrival(/*was_whitewasher=*/false);
      break;
    case ResetReason::kChurn:
      ++report_.churn_resets;
      ++phase.churn_resets;
      policy_.RecordArrival(/*was_whitewasher=*/false);
      break;
  }
}

Status ScenarioRunner::SubmitReportedDiff(const TrustMatrix& reported) {
  // A rejected submission is surfaced immediately: continuing the
  // boundary would aggregate a matrix that silently lost part of the
  // diff, which is exactly the corruption the bounded queue's explicit
  // backpressure exists to prevent.
  const auto overflow = [](const Status& s) {
    if (s.code() != StatusCode::kFailedPrecondition) return s;  // not a
    // backpressure rejection — propagate untouched.
    return Status(s.code(),
                  "trust-update ingest queue overflowed mid-boundary "
                  "(raise ScenarioSpec::update_queue_capacity): " +
                      s.message());
  };
  const uint32_t n = graph_->num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [j, value] : reported.Row(i)) {
      if (mirror_.HasOpinion(i, j) && mirror_.Get(i, j) == value) continue;
      if (Status s = service_->SubmitTrustUpdate(i, j, value); !s.ok()) {
        return overflow(s);
      }
      ++report_.trust_updates_submitted;
    }
    for (const auto& [j, value] : mirror_.Row(i)) {
      (void)value;
      if (reported.HasOpinion(i, j)) continue;
      if (Status s = service_->SubmitTrustErase(i, j); !s.ok()) {
        return overflow(s);
      }
      ++report_.trust_updates_submitted;
    }
  }
  return Status::OK();
}

Status ScenarioRunner::RunBoundary(uint32_t phase_index) {
  const ScenarioPhase& phase = schedule_[phase_index];
  ScenarioPhaseReport& phase_report = report_.phases[phase_index];

  // 1. What the population reports right now: honest experience, with
  //    colluder rows poisoned while the attack is actually on (a
  //    scripted attack phase, minus any adaptive self-suspension).
  TrustMatrix reported(graph_->num_nodes());
  if (spec_.collusion.has_value() && CollusionActiveNow(phase)) {
    CollusionConfig config;
    config.group_size = 1;  // unused by ApplyCollusion given a plan
    config.report_zero_for_outsiders =
        spec_.collusion_report_zero_for_outsiders;
    DGT_ASSIGN_OR_RETURN(reported,
                         ApplyCollusion(trust_, *spec_.collusion, config));
  } else {
    reported = trust_;
  }

  // 2. Stream the change through the service's ingest queue, then let the
  //    paced driver fold it and run exactly one aggregation round.
  DGT_RETURN_IF_ERROR(SubmitReportedDiff(reported));
  mirror_ = std::move(reported);
  if (!service_started_) {
    DGT_RETURN_IF_ERROR(service_->Start());
    service_started_ = true;
  } else {
    service_->AckEpoch(reader_id_, last_epoch_);
  }
  const uint64_t epoch = service_->AwaitEpochAfter(last_epoch_);
  if (epoch == 0) {
    Status driver = service_->driver_status();
    if (!driver.ok()) return driver;
    return Status::Internal("reputation service finished early");
  }
  last_epoch_ = epoch;
  snapshot_ = service_->Snapshot();
  ++report_.gossip_rounds;
  ++phase_report.epochs;

  // The adversary reads its admission-rate feedback from the epoch that
  // just landed and decides whether to keep attacking or lie low until
  // the next boundary.
  UpdateAdaptiveAttack(phase, phase_index);

  // 3. RMS error of the served scores against the collusion-free
  //    reference aggregation (honest observers only, paper eq. 18).
  if (reference_ != nullptr) {
    DGT_RETURN_IF_ERROR(reference_->RunRound());
    std::vector<std::vector<double>> served_rows;
    std::vector<std::vector<double>> reference_rows;
    for (NodeId i = 0; i < graph_->num_nodes(); ++i) {
      if (spec_.collusion.has_value() && spec_.collusion->IsColluder(i)) {
        continue;
      }
      served_rows.push_back(snapshot_->scores[i]);
      reference_rows.push_back(reference_->reputations()[i]);
    }
    DGT_ASSIGN_OR_RETURN(const double rms,
                         AverageRmsError(served_rows, reference_rows));
    phase_report.rms.push_back(rms);
  }
  return Status::OK();
}

GossipRunStats ScenarioRunner::last_round_stats() const {
  return snapshot_ != nullptr ? snapshot_->round_stats : GossipRunStats{};
}

void ScenarioRunner::EnterPhase(uint32_t phase_index) {
  const ScenarioPhase& phase = schedule_[phase_index];
  // A fresh adaptive phase starts with the attack on (the adversary only
  // backs off after reading bad feedback).
  adaptive_attack_on_ = true;

  // Scripted churn burst at phase entry.
  if (phase.churn_fraction > 0.0) {
    const uint32_t n = graph_->num_nodes();
    const uint32_t count = static_cast<uint32_t>(
        std::lround(phase.churn_fraction * static_cast<double>(n)));
    for (uint32_t idx :
         rng_.SampleWithoutReplacement(n, std::min(count, n))) {
      ResetIdentity(static_cast<NodeId>(idx), ResetReason::kChurn,
                    phase_index);
    }
  }
}

Result<ScenarioRunner::TransactionOutcome> ScenarioRunner::Transact(
    NodeId requester, uint32_t phase_index, RoundSnapshot& snap) {
  const ScenarioPhase& phase = schedule_[phase_index];
  ScenarioPhaseReport& phase_report = report_.phases[phase_index];
  TransactionOutcome out;

  const auto class_of = [&](NodeId i) -> MetricClass {
    switch (spec_.profiles[i].strategy) {
      case PeerStrategy::kFreeRider:
        return MetricClass::kFreeRider;
      case PeerStrategy::kColluder:
        return MetricClass::kColluder;
      case PeerStrategy::kCooperative:
        break;
    }
    if (spec_.lifecycle_enabled &&
        rounds_since_join_[i] < spec_.assessment_window) {
      return MetricClass::kNewcomer;
    }
    return MetricClass::kCooperative;
  };
  // Applies one mutation to all three accounting scopes. The cumulative
  // scope is updated per transaction (not per round) so satisfaction
  // sums accumulate in exactly the order the legacy sims used.
  const auto for_class = [&](MetricClass c, auto&& mutate) {
    mutate(PickClass(report_, c));
    mutate(PickClass(phase_report, c));
    mutate(PickClass(snap, c));
  };

  std::optional<NodeId> provider = DiscoverProvider(requester);
  if (!provider) return out;
  out.contacted = true;
  out.provider = *provider;
  const MetricClass requester_class = class_of(requester);
  for_class(requester_class, [](ClassMetrics& m) { ++m.requests; });
  if (spec_.lifecycle_enabled) ++window_requests_[requester];

  bool lost = false;
  bool serves;
  if (phase.packet_loss_prob > 0.0 &&
      rng_.NextBernoulli(phase.packet_loss_prob)) {
    // The transfer (or the request itself) drops in flight: the
    // requester goes unserved, but neither side experienced a
    // transaction, so no rating is recorded on either end.
    serves = false;
    lost = true;
  } else {
    serves = DecideToServe(*provider, requester, phase);
  }

  if (serves) {
    const double quality = spec_.profiles[*provider].service_quality;
    const double noise = rng_.NextDouble(-spec_.satisfaction_noise,
                                         spec_.satisfaction_noise);
    const double satisfaction = std::clamp(quality + noise, 0.0, 1.0);
    DGT_RETURN_IF_ERROR(
        estimator_.RecordTransaction(requester, *provider, satisfaction));
    for_class(requester_class, [&](ClassMetrics& m) {
      ++m.served;
      m.satisfaction_sum += satisfaction;
    });
    if (spec_.lifecycle_enabled) ++window_served_[requester];
    for_class(class_of(*provider), [](ClassMetrics& m) { ++m.uploads; });
  } else {
    for_class(requester_class, [&](ClassMetrics& m) {
      ++m.refused;
      if (lost) ++m.lost;
    });
    if (!lost && spec_.requester_records_refusals) {
      DGT_RETURN_IF_ERROR(estimator_.RecordRefusal(requester, *provider));
    }
  }

  // The provider also rates the requester by its cooperativeness —
  // this is how free riders' trust burns down: they never reciprocate
  // uploads, which the provider learns over repeated contact. A
  // refusal is still an encounter but carries far less information
  // than a completed transaction, so its rating is down-weighted
  // (refused_reciprocity_weight; 0 skips it entirely).
  if (spec_.rate_requester && !lost &&
      (serves || spec_.refused_reciprocity_weight > 0.0)) {
    const double reciprocity =
        spec_.profiles[requester].strategy == PeerStrategy::kFreeRider
            ? 0.0
            : spec_.profiles[requester].service_quality;
    double rated = std::clamp(
        reciprocity + rng_.NextDouble(-spec_.satisfaction_noise,
                                      spec_.satisfaction_noise),
        0.0, 1.0);
    if (!serves) rated *= spec_.refused_reciprocity_weight;
    DGT_RETURN_IF_ERROR(
        estimator_.RecordTransaction(*provider, requester, rated));
  }
  out.served = serves;
  out.lost = lost;
  return out;
}

Status ScenarioRunner::RunSyncRounds() {
  const uint32_t n = graph_->num_nodes();
  for (uint32_t round = 1; round <= spec_.num_rounds; ++round) {
    const uint32_t phase_index = PhaseIndexOf(round);
    const ScenarioPhase& phase = schedule_[phase_index];

    if (round == phase.start_round) EnterPhase(phase_index);

    RoundSnapshot snap;
    snap.round = round;
    // Heavily loaded network: every peer has a pending request each round.
    for (NodeId requester = 0; requester < n; ++requester) {
      DGT_ASSIGN_OR_RETURN(TransactionOutcome outcome,
                           Transact(requester, phase_index, snap));
      (void)outcome;
    }
    report_.rounds.push_back(snap);

    // End of round: identity lifecycle (whitewashing assessment + organic
    // honest churn), then the gossip boundary.
    if (spec_.lifecycle_enabled) {
      for (NodeId u = 0; u < n; ++u) {
        ++rounds_since_join_[u];
        if (window_requests_[u] < spec_.assessment_window) continue;
        const double rate = static_cast<double>(window_served_[u]) /
                            static_cast<double>(window_requests_[u]);
        if (phase.whitewashing_active &&
            spec_.profiles[u].strategy == PeerStrategy::kFreeRider &&
            rate < spec_.rejoin_threshold) {
          ResetIdentity(u, ResetReason::kWhitewash, phase_index);
        }
        window_requests_[u] = 0;
        window_served_[u] = 0;
      }
      if (rng_.NextBernoulli(spec_.honest_arrival_prob)) {
        const NodeId u = static_cast<NodeId>(rng_.NextBelow(n));
        if (spec_.profiles[u].strategy != PeerStrategy::kFreeRider) {
          ResetIdentity(u, ResetReason::kHonestArrival, phase_index);
        }
      }
    }

    if (spec_.gossip_every > 0 && round % spec_.gossip_every == 0) {
      DGT_RETURN_IF_ERROR(RunBoundary(phase_index));
    }
  }
  return Status::OK();
}

Status ScenarioRunner::RunAsyncEvents() {
  // The same workload as timed events: round r of the synchronous loop
  // becomes the time window [r-1, r). Per-peer Poisson timers replace
  // "every peer requests once per round", gossip boundaries fire at the
  // end of their window, and phase entry (adaptive re-arm + churn burst)
  // is an event at the window where the phase begins. The heap's seq
  // tie-break makes the whole interleaving deterministic: boundaries are
  // scheduled before phase entries before request timers, so a boundary
  // at time t commits before the phase that starts at t, which commits
  // before any request in the new phase — exactly the synchronous order.
  struct AsyncEvent {
    enum class Kind { kBoundary, kPhaseEntry, kRequest };
    Kind kind;
    NodeId node = 0;          // kRequest: whose timer fired
    uint32_t phase_index = 0; // kBoundary / kPhaseEntry
  };
  using Kind = AsyncEvent::Kind;

  const uint32_t n = graph_->num_nodes();
  const double horizon = static_cast<double>(spec_.num_rounds);
  DGT_ASSIGN_OR_RETURN(const LinkModel links,
                       LinkModel::Create(n, spec_.async.link));
  // Latency accounting draws from a stream derived from the link seed,
  // never from rng_: observing RTTs must not change what happens.
  Rng link_rng(Mix64(spec_.async.link.seed));

  TimedEventHeap<AsyncEvent> heap;
  if (spec_.gossip_every > 0) {
    for (uint32_t r = spec_.gossip_every; r <= spec_.num_rounds;
         r += spec_.gossip_every) {
      heap.Push(static_cast<double>(r),
                {Kind::kBoundary, 0, PhaseIndexOf(r)});
    }
  }
  for (uint32_t pi = 0; pi < schedule_.size(); ++pi) {
    heap.Push(static_cast<double>(schedule_[pi].start_round - 1),
              {Kind::kPhaseEntry, 0, pi});
  }
  const auto inter_arrival = [&]() {
    return -std::log(1.0 - rng_.NextDouble()) / spec_.async.request_rate;
  };
  for (NodeId i = 0; i < n; ++i) {
    heap.Push(inter_arrival(), {Kind::kRequest, i, 0});
  }

  // The per-round metric series keeps its synchronous shape: one
  // snapshot per time window, indexed by the window a request lands in.
  report_.rounds.assign(spec_.num_rounds, RoundSnapshot{});
  for (uint32_t r = 0; r < spec_.num_rounds; ++r) {
    report_.rounds[r].round = r + 1;
  }

  double sim_time = 0.0;
  while (!heap.empty()) {
    const auto item = heap.Pop();
    const double t = item.time;
    const AsyncEvent& event = item.payload;
    switch (event.kind) {
      case Kind::kPhaseEntry:
        sim_time = t;
        EnterPhase(event.phase_index);
        break;
      case Kind::kBoundary:
        sim_time = t;
        DGT_RETURN_IF_ERROR(RunBoundary(event.phase_index));
        break;
      case Kind::kRequest: {
        if (t >= horizon) break;  // past the last window: timer retires
        sim_time = t;
        const uint32_t round = static_cast<uint32_t>(t) + 1;
        const uint32_t phase_index = PhaseIndexOf(round);
        DGT_ASSIGN_OR_RETURN(
            const TransactionOutcome outcome,
            Transact(event.node, phase_index, report_.rounds[round - 1]));
        if (outcome.contacted && !outcome.lost) {
          // Completed request/response round trip (a served transfer or
          // an explicit refusal); a lost transfer never answers.
          const double rtt =
              links.Latency(event.node, outcome.provider, link_rng) +
              links.Latency(outcome.provider, event.node, link_rng);
          ++report_.async_rtt_count;
          report_.async_rtt_sum += rtt;
          ScenarioPhaseReport& phase_report = report_.phases[phase_index];
          ++phase_report.async_rtt_count;
          phase_report.async_rtt_sum += rtt;
        }
        const double next = t + inter_arrival();
        if (next < horizon) heap.Push(next, event);
        break;
      }
    }
  }
  report_.async_sim_time = sim_time;
  return Status::OK();
}

Status ScenarioRunner::Run() {
  if (ran_) return Status::FailedPrecondition("Run() may be called once");
  ran_ = true;

  DGT_RETURN_IF_ERROR(spec_.execution == ExecutionMode::kAsyncEventDriven
                          ? RunAsyncEvents()
                          : RunSyncRounds());

  // Release the paced driver so it can retire its round budget.
  if (service_started_) {
    service_->AckEpoch(reader_id_, last_epoch_);
    service_->AwaitCompletion();
    DGT_RETURN_IF_ERROR(service_->driver_status());
  }

  report_.final_initial_trust = StrangerTrust();
  report_.final_whitewashing_rate = policy_.WhitewashingRate();
  return Status::OK();
}

}  // namespace dgt
