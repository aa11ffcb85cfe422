// Negative coverage for ValidateScenarioSpec: every rejection path gets a
// case asserting the specific error (code + message), so a validation
// regression cannot silently let a malformed spec through to the runner —
// the fuzz generator's contract ("every generated spec validates") is
// only as strong as the validator itself.

#include <cmath>
#include <string>

#include "gtest/gtest.h"
#include "scenario/scenario_spec.h"

namespace dgt {
namespace {

ScenarioSpec MakeValidSpec(uint32_t num_nodes) {
  ScenarioSpec spec;
  spec.profiles.assign(num_nodes, PeerProfile{});
  spec.num_rounds = 20;
  spec.gossip_every = 5;
  return spec;
}

void ExpectInvalid(const ScenarioSpec& spec, uint32_t num_nodes,
                   const std::string& message_fragment) {
  const Status status = ValidateScenarioSpec(spec, num_nodes);
  ASSERT_FALSE(status.ok()) << "expected rejection: " << message_fragment;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(message_fragment), std::string::npos)
      << "got: " << status.message();
}

TEST(SpecValidationTest, AcceptsAWellFormedSpec) {
  EXPECT_TRUE(ValidateScenarioSpec(MakeValidSpec(8), 8).ok());
}

TEST(SpecValidationTest, RejectsEmptyPopulationAndProfileMismatch) {
  ExpectInvalid(ScenarioSpec{}, 0, "at least one node");
  ScenarioSpec spec = MakeValidSpec(8);
  spec.profiles.pop_back();
  ExpectInvalid(spec, 8, "one entry per node");
}

TEST(SpecValidationTest, RejectsZeroRoundsAndZeroTtl) {
  ScenarioSpec spec = MakeValidSpec(8);
  spec.num_rounds = 0;
  ExpectInvalid(spec, 8, "num_rounds must be >= 1");

  spec = MakeValidSpec(8);
  spec.discovery = DiscoveryMode::kQueryFlood;
  spec.query_ttl = 0;
  ExpectInvalid(spec, 8, "query_ttl must be >= 1");
}

TEST(SpecValidationTest, RejectsNonFiniteGossipTolerances) {
  // Regression: a NaN xi validated and then ran every gossip round to its
  // step cap; a NaN feedback_push_delta silently disabled re-pushes.
  for (double xi : {std::nan(""), HUGE_VAL, 0.0}) {
    ScenarioSpec spec = MakeValidSpec(8);
    spec.reputation.aggregation.gossip.xi = xi;
    ExpectInvalid(spec, 8, "xi must be finite and positive");
  }
  for (double delta : {std::nan(""), HUGE_VAL}) {
    ScenarioSpec spec = MakeValidSpec(8);
    spec.reputation.feedback_push_delta = delta;
    ExpectInvalid(spec, 8, "feedback_push_delta must be finite");
  }
}

TEST(SpecValidationTest, RejectsProbabilitiesOutsideUnitInterval) {
  ScenarioSpec spec = MakeValidSpec(8);
  spec.newcomer_serve_prob = 1.5;
  ExpectInvalid(spec, 8, "newcomer_serve_prob must lie in [0, 1]");

  spec = MakeValidSpec(8);
  spec.newcomer_serve_prob = -0.1;
  ExpectInvalid(spec, 8, "newcomer_serve_prob must lie in [0, 1]");

  spec = MakeValidSpec(8);
  spec.refused_reciprocity_weight = 2.0;
  ExpectInvalid(spec, 8, "refused_reciprocity_weight must lie in [0, 1]");

  spec = MakeValidSpec(8);
  spec.serve_threshold = 0.0;
  ExpectInvalid(spec, 8, "serve_threshold must be positive");

  spec = MakeValidSpec(8);
  spec.satisfaction_noise = -1.0;
  ExpectInvalid(spec, 8, "satisfaction_noise must be >= 0");
}

TEST(SpecValidationTest, RejectsLifecycleDialsOnlyWhenLifecycleIsOn) {
  ScenarioSpec spec = MakeValidSpec(8);
  spec.lifecycle_enabled = true;
  spec.rejoin_threshold = 1.5;
  ExpectInvalid(spec, 8, "rejoin_threshold must lie in [0, 1]");

  // The same out-of-range dial is ignored while lifecycle is off.
  spec.lifecycle_enabled = false;
  EXPECT_TRUE(ValidateScenarioSpec(spec, 8).ok());

  spec.lifecycle_enabled = true;
  spec.rejoin_threshold = 0.25;
  spec.assessment_window = 0;
  ExpectInvalid(spec, 8, "assessment_window must be >= 1");

  spec.assessment_window = 10;
  spec.honest_arrival_prob = -0.5;
  ExpectInvalid(spec, 8, "honest_arrival_prob must lie in [0, 1]");
}

TEST(SpecValidationTest, RejectsPhaseOrderingViolations) {
  // Out-of-order phases.
  ScenarioSpec spec = MakeValidSpec(8);
  spec.phases = {{"late", 10, 15}, {"early", 1, 5}};
  ExpectInvalid(spec, 8, "sorted by round and non-overlapping");

  // Overlapping phases.
  spec = MakeValidSpec(8);
  spec.phases = {{"a", 1, 10}, {"b", 10, 15}};
  ExpectInvalid(spec, 8, "sorted by round and non-overlapping");

  // 0 start round (rounds are 1-based).
  spec = MakeValidSpec(8);
  spec.phases = {{"zero", 0, 5}};
  ExpectInvalid(spec, 8, "phase rounds are 1-based");

  // end_round past num_rounds.
  spec = MakeValidSpec(8);
  spec.phases = {{"long", 5, 25}};
  ExpectInvalid(spec, 8, "phase [start, end] out of range");

  // Inverted [start, end].
  spec = MakeValidSpec(8);
  spec.phases = {{"inverted", 10, 5}};
  ExpectInvalid(spec, 8, "phase [start, end] out of range");

  // An open-ended phase (end_round = 0) following an explicit one is
  // fine; a phase after it is not (it overlaps the open tail).
  spec = MakeValidSpec(8);
  spec.phases = {{"a", 1, 5}, {"tail", 6, 0}};
  EXPECT_TRUE(ValidateScenarioSpec(spec, 8).ok());
  spec.phases.push_back({"after-tail", 10, 0});
  ExpectInvalid(spec, 8, "sorted by round and non-overlapping");
}

TEST(SpecValidationTest, RejectsPhaseProbabilitiesOutsideUnitInterval) {
  ScenarioSpec spec = MakeValidSpec(8);
  spec.phases = {{"loss", 1, 5, false, 1.5}};
  ExpectInvalid(spec, 8, "packet_loss_prob must lie in [0, 1]");

  spec = MakeValidSpec(8);
  spec.phases = {{"churn", 1, 5, false, 0.0, -0.25}};
  ExpectInvalid(spec, 8, "churn_fraction must lie in [0, 1]");
}

TEST(SpecValidationTest, RejectsWhitewashingWithoutLifecycle) {
  ScenarioSpec spec = MakeValidSpec(8);
  spec.phases = {{"ww", 1, 5, false, 0.0, 0.0, true}};
  ExpectInvalid(spec, 8, "whitewashing_active phases require "
                         "lifecycle_enabled");
  spec.lifecycle_enabled = true;
  EXPECT_TRUE(ValidateScenarioSpec(spec, 8).ok());
}

TEST(SpecValidationTest, RejectsColluderProfilesWithoutACollusionPlan) {
  ScenarioSpec spec = MakeValidSpec(8);
  spec.profiles[3].strategy = PeerStrategy::kColluder;
  ExpectInvalid(spec, 8, "colluder profiles require a CollusionPlan");

  // With a covering plan the same population validates.
  CollusionConfig config;
  config.colluding_fraction = 0.5;
  config.group_size = 2;
  Result<CollusionPlan> plan = MakeCollusionPlan(8, config);
  ASSERT_TRUE(plan.ok());
  spec.profiles[3].strategy = PeerStrategy::kCooperative;
  for (NodeId c : plan->colluders) {
    spec.profiles[c].strategy = PeerStrategy::kColluder;
  }
  spec.collusion = std::move(plan).value();
  EXPECT_TRUE(ValidateScenarioSpec(spec, 8).ok());

  // A plan sized for a different population is rejected.
  ScenarioSpec mismatched = MakeValidSpec(10);
  mismatched.collusion = spec.collusion;
  ExpectInvalid(mismatched, 10, "collusion plan node count mismatch");
}

TEST(SpecValidationTest, RejectsMalformedAdaptivePhases) {
  // adaptive_collusion without collusion_active.
  ScenarioSpec spec = MakeValidSpec(8);
  spec.phases = {{"adaptive", 1, 10, false, 0.0, 0.0, false, true}};
  ExpectInvalid(spec, 8,
                "adaptive_collusion requires collusion_active");

  // ... under kDirectTrust admission (no served feedback signal).
  spec = MakeValidSpec(8);
  spec.admission = AdmissionMode::kDirectTrust;
  spec.phases = {{"adaptive", 1, 10, true, 0.0, 0.0, false, true}};
  ExpectInvalid(spec, 8,
                "adaptive_collusion requires kServedReputation admission");

  // ... without any gossip boundary to read the signal at.
  spec = MakeValidSpec(8);
  spec.gossip_every = 0;
  spec.phases = {{"adaptive", 1, 10, true, 0.0, 0.0, false, true}};
  ExpectInvalid(spec, 8, "requires gossip_every > 0");

  // ... with thresholds outside [0, 1].
  spec = MakeValidSpec(8);
  spec.phases = {
      {"adaptive", 1, 10, true, 0.0, 0.0, false, true, -0.1, 0.6}};
  ExpectInvalid(spec, 8, "adaptive thresholds must lie in [0, 1]");

  // ... with an inverted hysteresis.
  spec = MakeValidSpec(8);
  spec.phases = {
      {"adaptive", 1, 10, true, 0.0, 0.0, false, true, 0.7, 0.3}};
  ExpectInvalid(spec, 8,
                "adaptive_suspend_below must not exceed "
                "adaptive_resume_above");

  // A well-formed adaptive phase validates.
  spec = MakeValidSpec(8);
  spec.phases = {
      {"adaptive", 1, 10, true, 0.0, 0.0, false, true, 0.2, 0.6}};
  EXPECT_TRUE(ValidateScenarioSpec(spec, 8).ok());
}

}  // namespace
}  // namespace dgt
