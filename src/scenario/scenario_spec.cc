#include "scenario/scenario_spec.h"

#include <cmath>

#include "gossip/options.h"

namespace dgt {

Status ValidateScenarioSpec(const ScenarioSpec& spec, uint32_t num_nodes) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("scenario needs at least one node");
  }
  if (spec.profiles.size() != num_nodes) {
    return Status::InvalidArgument("profiles must have one entry per node");
  }
  if (spec.num_rounds == 0) {
    return Status::InvalidArgument("num_rounds must be >= 1");
  }
  if (spec.discovery == DiscoveryMode::kQueryFlood && spec.query_ttl == 0) {
    return Status::InvalidArgument("query_ttl must be >= 1");
  }
  if (!(spec.serve_threshold > 0.0)) {
    return Status::InvalidArgument("serve_threshold must be positive");
  }
  if (!(spec.satisfaction_noise >= 0.0)) {
    return Status::InvalidArgument("satisfaction_noise must be >= 0");
  }
  if (!IsProbability(spec.newcomer_serve_prob)) {
    return Status::InvalidArgument("newcomer_serve_prob must lie in [0, 1]");
  }
  if (!IsProbability(spec.refused_reciprocity_weight)) {
    return Status::InvalidArgument(
        "refused_reciprocity_weight must lie in [0, 1]");
  }
  if (!IsValidXi(spec.reputation.aggregation.gossip.xi)) {
    return Status::InvalidArgument("xi must be finite and positive");
  }
  // A NaN delta fails every |change| > delta test, so changed opinions
  // would never be pushed again.
  if (!std::isfinite(spec.reputation.feedback_push_delta)) {
    return Status::InvalidArgument("feedback_push_delta must be finite");
  }
  if (spec.lifecycle_enabled) {
    if (spec.assessment_window == 0) {
      return Status::InvalidArgument("assessment_window must be >= 1");
    }
    if (!IsProbability(spec.rejoin_threshold)) {
      return Status::InvalidArgument("rejoin_threshold must lie in [0, 1]");
    }
    if (!IsProbability(spec.honest_arrival_prob)) {
      return Status::InvalidArgument("honest_arrival_prob must lie in [0, 1]");
    }
  }
  if (spec.execution == ExecutionMode::kAsyncEventDriven) {
    if (spec.lifecycle_enabled) {
      return Status::InvalidArgument(
          "identity lifecycle (whitewashing / honest arrivals) is not "
          "supported in async event-driven mode yet");
    }
    if (!(spec.async.request_rate > 0.0) ||
        !std::isfinite(spec.async.request_rate)) {
      return Status::InvalidArgument(
          "async.request_rate must be positive and finite");
    }
  }
  if (spec.collusion && spec.collusion->group_of.size() != num_nodes) {
    return Status::InvalidArgument("collusion plan node count mismatch");
  }
  if (!spec.collusion) {
    for (const PeerProfile& profile : spec.profiles) {
      if (profile.strategy == PeerStrategy::kColluder) {
        return Status::InvalidArgument(
            "colluder profiles require a CollusionPlan");
      }
    }
  }

  uint32_t previous_end = 0;
  for (const ScenarioPhase& phase : spec.phases) {
    const uint32_t end =
        phase.end_round == 0 ? spec.num_rounds : phase.end_round;
    if (phase.start_round == 0) {
      return Status::InvalidArgument("phase rounds are 1-based");
    }
    if (phase.start_round <= previous_end) {
      return Status::InvalidArgument(
          "phases must be sorted by round and non-overlapping");
    }
    if (end < phase.start_round || end > spec.num_rounds) {
      return Status::InvalidArgument("phase [start, end] out of range");
    }
    if (!IsProbability(phase.packet_loss_prob)) {
      return Status::InvalidArgument("packet_loss_prob must lie in [0, 1]");
    }
    if (!IsProbability(phase.churn_fraction)) {
      return Status::InvalidArgument("churn_fraction must lie in [0, 1]");
    }
    if (phase.whitewashing_active && !spec.lifecycle_enabled) {
      return Status::InvalidArgument(
          "whitewashing_active phases require lifecycle_enabled");
    }
    if (phase.adaptive_collusion) {
      if (!phase.collusion_active) {
        return Status::InvalidArgument(
            "adaptive_collusion requires collusion_active in the same "
            "phase");
      }
      if (spec.admission != AdmissionMode::kServedReputation) {
        return Status::InvalidArgument(
            "adaptive_collusion requires kServedReputation admission");
      }
      if (spec.gossip_every == 0) {
        return Status::InvalidArgument(
            "adaptive_collusion requires gossip_every > 0 (the feedback "
            "signal is read at gossip boundaries)");
      }
      if (!IsProbability(phase.adaptive_suspend_below) ||
          !IsProbability(phase.adaptive_resume_above)) {
        return Status::InvalidArgument(
            "adaptive thresholds must lie in [0, 1]");
      }
      if (phase.adaptive_suspend_below > phase.adaptive_resume_above) {
        return Status::InvalidArgument(
            "adaptive_suspend_below must not exceed adaptive_resume_above "
            "(the hysteresis would invert)");
      }
    }
    previous_end = end;
  }
  return Status::OK();
}

}  // namespace dgt
