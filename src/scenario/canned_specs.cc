#include "scenario/canned_specs.h"

#include <utility>

namespace dgt {

ScenarioSpec FileSharingScenarioSpec(std::vector<PeerProfile> profiles,
                                     std::optional<CollusionPlan> collusion) {
  ScenarioSpec spec;
  spec.profiles = std::move(profiles);
  spec.collusion = std::move(collusion);
  spec.discovery = DiscoveryMode::kQueryFlood;
  spec.admission = AdmissionMode::kServedReputation;
  spec.requester_records_refusals = true;
  spec.rate_requester = false;
  spec.lifecycle_enabled = false;
  ScenarioPhase phase;
  phase.name = "file-sharing";
  phase.collusion_active = true;  // colluders collude for the whole run
  spec.phases = {std::move(phase)};
  return spec;
}

ScenarioSpec WhitewashingScenarioSpec(std::vector<PeerProfile> profiles) {
  ScenarioSpec spec;
  spec.profiles = std::move(profiles);
  spec.num_rounds = 150;
  spec.discovery = DiscoveryMode::kUniformRandom;
  spec.admission = AdmissionMode::kDirectTrust;
  spec.serve_threshold = 0.4;
  spec.newcomer_mode = NewcomerMode::kAdaptive;
  spec.requester_records_refusals = false;
  spec.rate_requester = true;
  spec.lifecycle_enabled = true;
  spec.honest_arrival_prob = 0.05;
  spec.gossip_every = 0;  // the stranger-policy dial needs no aggregation
  ScenarioPhase phase;
  phase.name = "whitewashing";
  phase.whitewashing_active = true;
  spec.phases = {std::move(phase)};
  return spec;
}

}  // namespace dgt
