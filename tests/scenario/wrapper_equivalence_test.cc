// Equivalence pins for the scenario engine:
//
//   1. The canned specs reproduce the *legacy* closed-loop simulators
//      bit-for-bit — same seeds, identical class metrics, and (for the
//      file-sharing workload) reputations identical to the last ulp even
//      though the engine serves them from a live ReputationService
//      instead of a private batch ReputationSystem. The legacy loops are
//      re-created verbatim below as independent reference oracles (they
//      were deleted from p2p/ when the engine replaced them); they read
//      their dials from the same ScenarioSpec the engine runs and fill a
//      ScenarioReport.
//   2. The accounting bugfixes that shipped with the engine are asserted
//      as explicit deltas: the whitewashing spec reproduces the legacy
//      numbers only at refused_reciprocity_weight = 1.0, and the default
//      down-weight strictly shrinks refusal-built trust.

#include <algorithm>
#include <optional>

#include "p2p/query_flood.h"
#include "reputation/reputation_system.h"
#include "scenario/canned_specs.h"
#include "scenario/scenario_runner.h"
#include "test_util.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

using testing_util::MakePaGraph;

#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok())

void ExpectClassEq(const ClassMetrics& a, const ClassMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.uploads, b.uploads);
  EXPECT_EQ(a.satisfaction_sum, b.satisfaction_sum);  // bit-identical
}

std::vector<PeerProfile> Population(uint32_t n, double free_riders,
                                    uint64_t seed) {
  Rng rng(seed);
  PopulationMix mix;
  mix.free_rider_fraction = free_riders;
  mix.min_quality = 0.6;
  return MakePopulation(n, mix, rng);
}

// ---------------------------------------------------------------------
// Verbatim re-creation of the pre-engine file-sharing simulator's round
// loop (batch ReputationSystem over a private reported matrix, dense-only
// collusion reporting — the loop p2p/ held before the scenario engine
// replaced it).
// ---------------------------------------------------------------------

struct LegacyFileSharingResult {
  ScenarioReport report;
  std::vector<std::vector<double>> reputations;
};

LegacyFileSharingResult LegacyFileSharingRun(const Graph& graph,
                                             const ScenarioSpec& options) {
  const std::vector<PeerProfile>& profiles = options.profiles;
  const std::optional<CollusionPlan>& collusion = options.collusion;
  const uint32_t n = graph.num_nodes();
  TrustMatrix trust(n);
  TrustMatrix reported_trust(n);
  TrustEstimator estimator(&trust, options.trust);
  ReputationSystem reputation(&graph, &reported_trust, options.reputation);
  Rng rng(options.seed);
  LegacyFileSharingResult out;
  ScenarioReport& report = out.report;

  auto class_of = [&](NodeId i) -> ClassMetrics& {
    switch (profiles[i].strategy) {
      case PeerStrategy::kFreeRider:
        return report.free_rider;
      case PeerStrategy::kColluder:
        return report.colluder;
      case PeerStrategy::kCooperative:
        break;
    }
    return report.cooperative;
  };
  auto discover = [&](NodeId requester) -> std::optional<NodeId> {
    Result<QueryResult> q =
        FloodQueryAllHolders(graph, requester, options.query_ttl);
    if (!q.ok() || q->providers.empty()) return std::nullopt;
    return q->providers[rng.NextBelow(q->providers.size())];
  };
  auto decide = [&](NodeId provider, NodeId requester) {
    const PeerProfile& p = profiles[provider];
    if (p.strategy == PeerStrategy::kFreeRider) return false;
    if (p.strategy == PeerStrategy::kColluder) {
      return collusion.has_value() &&
             collusion->SameGroup(provider, requester);
    }
    const double rep = reputation.Reputation(provider, requester);
    const bool knows_directly = trust.HasOpinion(provider, requester);
    if (rep <= 0.0 && !knows_directly) {
      return rng.NextBernoulli(options.newcomer_serve_prob);
    }
    if (rep >= options.serve_threshold) return true;
    return rng.NextBernoulli(rep / options.serve_threshold);
  };

  for (uint32_t round = 1; round <= options.num_rounds; ++round) {
    RoundSnapshot snap;
    snap.round = round;
    auto snap_class = [&](NodeId i) -> ClassMetrics& {
      switch (profiles[i].strategy) {
        case PeerStrategy::kFreeRider:
          return snap.free_rider;
        case PeerStrategy::kColluder:
          return snap.colluder;
        case PeerStrategy::kCooperative:
          break;
      }
      return snap.cooperative;
    };

    for (NodeId requester = 0; requester < n; ++requester) {
      std::optional<NodeId> provider = discover(requester);
      if (!provider) continue;
      ClassMetrics& total = class_of(requester);
      ClassMetrics& per_round = snap_class(requester);
      ++total.requests;
      ++per_round.requests;
      if (decide(*provider, requester)) {
        double q = profiles[*provider].service_quality;
        double noise = rng.NextDouble(-options.satisfaction_noise,
                                      options.satisfaction_noise);
        double satisfaction = std::clamp(q + noise, 0.0, 1.0);
        EXPECT_OK(
            estimator.RecordTransaction(requester, *provider, satisfaction));
        ++total.served;
        ++per_round.served;
        total.satisfaction_sum += satisfaction;
        per_round.satisfaction_sum += satisfaction;
        ++class_of(*provider).uploads;
        ++snap_class(*provider).uploads;
      } else {
        EXPECT_OK(estimator.RecordRefusal(requester, *provider));
        ++total.refused;
        ++per_round.refused;
      }
    }
    report.rounds.push_back(snap);

    if (options.gossip_every > 0 && round % options.gossip_every == 0) {
      if (collusion) {
        CollusionConfig config;  // dense reporting, the paper's model
        config.group_size = 1;
        auto poisoned = ApplyCollusion(trust, *collusion, config);
        EXPECT_TRUE(poisoned.ok());
        reported_trust = std::move(poisoned).value();
      } else {
        reported_trust = trust;
      }
      EXPECT_OK(reputation.RunRound());
      ++report.gossip_rounds;
    }
  }
  out.reputations = reputation.reputations();
  return out;
}

// ---------------------------------------------------------------------
// Verbatim re-creation of the pre-fix whitewashing simulator's round
// loop, including the accounting bug the engine fixes: the provider
// recorded a *full-strength* reciprocity rating on every request,
// refusals included. Classes as in the engine: established honest peers
// are `cooperative`, honest peers within their first window `newcomer`,
// and free riders cycling identities `free_rider`.
// ---------------------------------------------------------------------

ScenarioReport LegacyWhitewashingRun(const Graph& graph,
                                     const ScenarioSpec& options) {
  const std::vector<PeerProfile>& profiles = options.profiles;
  const uint32_t n = graph.num_nodes();
  TrustMatrix trust(n);
  TrustEstimator estimator(&trust, options.trust);
  NewcomerPolicy policy(options.newcomer_policy);
  Rng rng(options.seed);
  ScenarioReport report;
  std::vector<uint32_t> window_requests(n, 0), window_served(n, 0);
  std::vector<uint32_t> rounds_since_join(n, 1000000);

  auto stranger_trust = [&] {
    switch (options.newcomer_mode) {
      case NewcomerMode::kZero:
        return 0.0;
      case NewcomerMode::kOptimistic:
        return options.newcomer_policy.optimistic_initial;
      case NewcomerMode::kAdaptive:
        return policy.InitialTrust();
    }
    return 0.0;
  };
  auto reset_identity = [&](NodeId node) {
    for (NodeId i = 0; i < trust.num_nodes(); ++i) {
      trust.Erase(i, node);
      trust.Erase(node, i);
    }
    window_requests[node] = 0;
    window_served[node] = 0;
    rounds_since_join[node] = 0;
    ++report.identity_resets;
  };

  for (uint32_t round = 1; round <= options.num_rounds; ++round) {
    for (NodeId requester = 0; requester < n; ++requester) {
      NodeId provider = requester;
      while (provider == requester) {
        provider = static_cast<NodeId>(rng.NextBelow(n));
      }
      const bool requester_ww =
          profiles[requester].strategy == PeerStrategy::kFreeRider;
      const bool is_newcomer =
          !requester_ww &&
          rounds_since_join[requester] < options.assessment_window;
      ClassMetrics& metrics =
          requester_ww ? report.free_rider
                       : (is_newcomer ? report.newcomer : report.cooperative);
      ++metrics.requests;
      ++window_requests[requester];

      double basis = trust.HasOpinion(provider, requester)
                         ? trust.Get(provider, requester)
                         : stranger_trust();
      bool provider_serves =
          profiles[provider].strategy != PeerStrategy::kFreeRider &&
          rng.NextBernoulli(std::min(1.0, basis / options.serve_threshold));

      if (provider_serves) {
        double satisfaction =
            std::clamp(profiles[provider].service_quality +
                           rng.NextDouble(-0.05, 0.05),
                       0.0, 1.0);
        EXPECT_OK(
            estimator.RecordTransaction(requester, provider, satisfaction));
        ++metrics.served;
        ++window_served[requester];
        metrics.satisfaction_sum += satisfaction;
        // Upload accounting is new in the engine (the legacy sim never
        // tracked the provider side); mirror the engine's attribution so
        // the full ClassMetrics stay comparable.
        const bool provider_ww =
            profiles[provider].strategy == PeerStrategy::kFreeRider;
        const bool provider_new =
            !provider_ww &&
            rounds_since_join[provider] < options.assessment_window;
        ClassMetrics& provider_metrics =
            provider_ww ? report.free_rider
                        : (provider_new ? report.newcomer : report.cooperative);
        ++provider_metrics.uploads;
      } else {
        ++metrics.refused;
      }

      // The pre-fix accounting: full-strength reciprocity, served or not.
      double reciprocity =
          requester_ww ? 0.0 : profiles[requester].service_quality;
      EXPECT_OK(estimator.RecordTransaction(
          provider, requester,
          std::clamp(reciprocity + rng.NextDouble(-0.05, 0.05), 0.0, 1.0)));
    }

    for (NodeId u = 0; u < n; ++u) {
      ++rounds_since_join[u];
      if (window_requests[u] < options.assessment_window) continue;
      double rate = static_cast<double>(window_served[u]) /
                    static_cast<double>(window_requests[u]);
      if (profiles[u].strategy == PeerStrategy::kFreeRider &&
          rate < options.rejoin_threshold) {
        reset_identity(u);
        policy.RecordArrival(/*was_whitewasher=*/true);
      }
      window_requests[u] = 0;
      window_served[u] = 0;
    }
    if (rng.NextBernoulli(options.honest_arrival_prob)) {
      NodeId u = static_cast<NodeId>(rng.NextBelow(n));
      if (profiles[u].strategy != PeerStrategy::kFreeRider) {
        reset_identity(u);
        --report.identity_resets;  // not an attack reset
        policy.RecordArrival(/*was_whitewasher=*/false);
        ++report.honest_arrivals;
      }
    }
  }

  report.final_initial_trust = stranger_trust();
  report.final_whitewashing_rate = policy.WhitewashingRate();
  return report;
}

// ---------------------------------------------------------------------

TEST(WrapperEquivalenceTest, FileSharingEngineMatchesLegacyClosedLoop) {
  Graph g = MakePaGraph(40, 2, 300);
  ScenarioSpec spec = FileSharingScenarioSpec(Population(40, 0.25, 301));
  spec.num_rounds = 30;
  spec.gossip_every = 10;
  spec.reputation.aggregation.gossip.xi = 1e-6;
  spec.seed = 302;

  LegacyFileSharingResult legacy = LegacyFileSharingRun(g, spec);

  auto runner = ScenarioRunner::Create(&g, spec);
  ASSERT_TRUE(runner.ok());
  EXPECT_OK((*runner)->Run());
  const ScenarioReport& rep = (*runner)->report();

  ExpectClassEq(rep.cooperative, legacy.report.cooperative);
  ExpectClassEq(rep.free_rider, legacy.report.free_rider);
  ExpectClassEq(rep.colluder, legacy.report.colluder);
  EXPECT_EQ(rep.gossip_rounds, legacy.report.gossip_rounds);
  ASSERT_EQ(rep.rounds.size(), legacy.report.rounds.size());
  for (size_t i = 0; i < rep.rounds.size(); ++i) {
    ExpectClassEq(rep.rounds[i].cooperative,
                  legacy.report.rounds[i].cooperative);
    ExpectClassEq(rep.rounds[i].free_rider,
                  legacy.report.rounds[i].free_rider);
  }
  EXPECT_EQ(rep.gossip_rounds, 3u);
}

TEST(WrapperEquivalenceTest,
     FileSharingEngineMatchesLegacyUnderDenseCollusion) {
  const uint32_t n = 48;
  Graph g = MakePaGraph(n, 2, 310);
  CollusionConfig cfg;
  cfg.colluding_fraction = 0.25;
  cfg.group_size = 4;
  cfg.seed = 311;
  auto plan = MakeCollusionPlan(n, cfg);
  ASSERT_TRUE(plan.ok());
  std::vector<PeerProfile> profiles(n);
  Rng qrng(312);
  for (NodeId i = 0; i < n; ++i) {
    profiles[i].strategy = plan->IsColluder(i) ? PeerStrategy::kColluder
                                               : PeerStrategy::kCooperative;
    profiles[i].service_quality = qrng.NextDouble(0.6, 1.0);
  }
  ScenarioSpec spec = FileSharingScenarioSpec(profiles, *plan);
  spec.num_rounds = 24;
  spec.gossip_every = 8;
  spec.reputation.aggregation.gossip.xi = 1e-6;
  spec.seed = 313;

  LegacyFileSharingResult legacy = LegacyFileSharingRun(g, spec);

  auto runner = ScenarioRunner::Create(&g, spec);
  ASSERT_TRUE(runner.ok());
  EXPECT_OK((*runner)->Run());
  const ScenarioReport& rep = (*runner)->report();

  ExpectClassEq(rep.cooperative, legacy.report.cooperative);
  ExpectClassEq(rep.free_rider, legacy.report.free_rider);
  ExpectClassEq(rep.colluder, legacy.report.colluder);
  EXPECT_EQ(rep.gossip_rounds, legacy.report.gossip_rounds);

  // Served scores == legacy batch reputations, to the last ulp.
  auto snapshot = (*runner)->snapshot();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->scores.size(), legacy.reputations.size());
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      EXPECT_EQ(snapshot->scores[i][j], legacy.reputations[i][j])
          << "scores diverge at (" << i << ", " << j << ")";
    }
  }
}

TEST(WrapperEquivalenceTest,
     WhitewashingMatchesLegacyAccountingAtWeightOne) {
  Graph g = MakePaGraph(50, 2, 330);
  ScenarioSpec spec = WhitewashingScenarioSpec(Population(50, 0.25, 331));
  spec.num_rounds = 100;
  spec.newcomer_mode = NewcomerMode::kAdaptive;
  spec.seed = 332;
  spec.refused_reciprocity_weight = 1.0;  // the pre-fix accounting

  ScenarioReport legacy = LegacyWhitewashingRun(g, spec);

  auto runner = ScenarioRunner::Create(&g, spec);
  ASSERT_TRUE(runner.ok());
  EXPECT_OK((*runner)->Run());
  const ScenarioReport& rep = (*runner)->report();

  ExpectClassEq(rep.cooperative, legacy.cooperative);
  ExpectClassEq(rep.newcomer, legacy.newcomer);
  ExpectClassEq(rep.free_rider, legacy.free_rider);
  EXPECT_EQ(rep.identity_resets, legacy.identity_resets);
  EXPECT_EQ(rep.honest_arrivals, legacy.honest_arrivals);
  EXPECT_EQ(rep.final_initial_trust, legacy.final_initial_trust);
  EXPECT_EQ(rep.final_whitewashing_rate, legacy.final_whitewashing_rate);
}

TEST(WrapperEquivalenceTest, RefusalDownWeightShrinksRefusalBuiltTrust) {
  // The explicit delta of the accounting fix: with a high serve
  // threshold almost every request is refused, so direct trust is built
  // almost exclusively by provider-side reciprocity ratings on refusals.
  // Down-weighting those ratings must shrink the accumulated trust mass
  // (and with it the service refusals buy) — the pre-fix behaviour let
  // free riding look ~4x cheaper than it is.
  Graph g = MakePaGraph(40, 2, 350);
  ScenarioSpec spec = WhitewashingScenarioSpec(Population(40, 0.25, 351));
  spec.num_rounds = 15;
  spec.newcomer_mode = NewcomerMode::kZero;
  spec.serve_threshold = 0.9;
  spec.seed = 352;

  ScenarioSpec legacy_weight = spec;
  legacy_weight.refused_reciprocity_weight = 1.0;
  auto fixed = ScenarioRunner::Create(&g, spec);
  auto legacy = ScenarioRunner::Create(&g, legacy_weight);
  ASSERT_TRUE(fixed.ok() && legacy.ok());
  EXPECT_OK((*fixed)->Run());
  EXPECT_OK((*legacy)->Run());

  auto trust_mass = [](const TrustMatrix& t) {
    double sum = 0.0;
    for (NodeId i = 0; i < t.num_nodes(); ++i) {
      for (const auto& [j, v] : t.Row(i)) {
        (void)j;
        sum += v;
      }
    }
    return sum;
  };
  const double fixed_mass = trust_mass((*fixed)->trust());
  const double legacy_mass = trust_mass((*legacy)->trust());
  EXPECT_LT(fixed_mass, 0.6 * legacy_mass)
      << "down-weighted refusals must build much less trust "
      << "(fixed " << fixed_mass << " vs legacy " << legacy_mass << ")";
}

}  // namespace
}  // namespace dgt
