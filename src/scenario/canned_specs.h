// Canned ScenarioSpecs for the paper's stock scenarios. Each builder sets
// only the workload shape — discovery, admission, rating rules, identity
// lifecycle and one all-run phase; callers set the dials (rounds, seed,
// thresholds, reputation options) on the returned spec directly, and
// composed scenarios can start from one and edit the phase schedule.
// tests/scenario/wrapper_equivalence_test.cc pins both specs against
// independent re-creations of the original closed-loop simulators.

#ifndef DGT_SCENARIO_CANNED_SPECS_H_
#define DGT_SCENARIO_CANNED_SPECS_H_

#include <optional>
#include <vector>

#include "scenario/scenario_spec.h"

namespace dgt {

// The file-sharing workload (paper §1/§4 free-riding economics, §5.2
// collusion when a plan is given): query-flood discovery, served-
// reputation admission with bootstrap altruism, requester-side refusal
// scores, one all-run phase with collusion active. The spec's own
// defaults are the workload's defaults.
ScenarioSpec FileSharingScenarioSpec(
    std::vector<PeerProfile> profiles,
    std::optional<CollusionPlan> collusion = std::nullopt);

// The whitewashing study (paper §4.1.2): uniform-random discovery,
// direct-trust admission with the stranger-policy dial, provider-side
// reciprocity ratings, identity lifecycle on, no gossip rounds. Starts
// from the study's defaults: 150 rounds, serve threshold 0.4, honest
// arrival probability 0.05 and the adaptive stranger policy.
ScenarioSpec WhitewashingScenarioSpec(std::vector<PeerProfile> profiles);

}  // namespace dgt

#endif  // DGT_SCENARIO_CANNED_SPECS_H_
