#include "scenario/fuzz/spec_text.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace dgt {

namespace {

constexpr char kHeader[] = "dgt_scenario_spec 1";

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* TopologyToken(FuzzTopology t) {
  switch (t) {
    case FuzzTopology::kPreferentialAttachment:
      return "pa";
    case FuzzTopology::kComplete:
      return "complete";
    case FuzzTopology::kRing:
      return "ring";
  }
  return "?";
}

const char* StrategyToken(PeerStrategy s) {
  switch (s) {
    case PeerStrategy::kCooperative:
      return "coop";
    case PeerStrategy::kFreeRider:
      return "fr";
    case PeerStrategy::kColluder:
      return "col";
  }
  return "?";
}

// One `key value...` line split into tokens. Parsing helpers consume
// tokens left to right; Done() enforces the exact token count.
class Line {
 public:
  Line(std::string text, size_t number) : number_(number) {
    std::istringstream in(std::move(text));
    std::string token;
    while (in >> token) tokens_.push_back(std::move(token));
  }

  bool empty() const { return tokens_.empty(); }
  const std::string& key() const { return tokens_[0]; }
  size_t remaining() const { return tokens_.size() - cursor_; }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("spec line " + std::to_string(number_) +
                                   ": " + message);
  }

  Result<std::string> Token() {
    if (cursor_ >= tokens_.size()) {
      return Error("missing field after '" + key() + "'");
    }
    return tokens_[cursor_++];
  }

  Result<uint64_t> U64() {
    DGT_ASSIGN_OR_RETURN(std::string token, Token());
    char* end = nullptr;
    errno = 0;
    const uint64_t v = std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || end == token.c_str() || *end != '\0') {
      return Error("bad integer '" + token + "'");
    }
    return v;
  }

  Result<uint32_t> U32() {
    DGT_ASSIGN_OR_RETURN(uint64_t v, U64());
    if (v > UINT32_MAX) return Error("integer out of 32-bit range");
    return static_cast<uint32_t>(v);
  }

  Result<bool> Bool() {
    DGT_ASSIGN_OR_RETURN(uint64_t v, U64());
    if (v > 1) return Error("flag must be 0 or 1");
    return v == 1;
  }

  Result<double> Double() {
    DGT_ASSIGN_OR_RETURN(std::string token, Token());
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == token.c_str() || *end != '\0') {
      return Error("bad number '" + token + "'");
    }
    return v;
  }

  Status Done() const {
    if (cursor_ != tokens_.size()) {
      return Error("trailing tokens after '" + key() + "' record");
    }
    return Status::OK();
  }

 private:
  std::vector<std::string> tokens_;
  size_t cursor_ = 1;  // tokens_[0] is the key
  size_t number_;
};

void AppendIds(const std::vector<NodeId>& ids, std::ostringstream* out) {
  *out << ' ' << ids.size();
  for (NodeId id : ids) *out << ' ' << id;
}

Result<std::vector<NodeId>> ParseIds(Line& line, uint32_t num_nodes) {
  DGT_ASSIGN_OR_RETURN(uint64_t count, line.U64());
  if (count != line.remaining()) {
    return line.Error("id count does not match the ids present");
  }
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (uint64_t k = 0; k < count; ++k) {
    DGT_ASSIGN_OR_RETURN(uint32_t id, line.U32());
    if (id >= num_nodes) return line.Error("node id out of range");
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

std::string SpecToText(const GeneratedScenario& scenario,
                       const std::string& comment) {
  const ScenarioSpec& spec = scenario.spec;
  std::ostringstream out;
  out << kHeader << '\n';
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << '\n';
  }
  out << "name " << scenario.name << '\n';
  out << "index " << scenario.index << '\n';
  out << "graph " << TopologyToken(scenario.graph.topology) << ' '
      << scenario.graph.num_nodes << ' ' << scenario.graph.degree << ' '
      << scenario.graph.seed << '\n';
  out << "num_rounds " << spec.num_rounds << '\n';
  out << "execution "
      << (spec.execution == ExecutionMode::kAsyncEventDriven ? "async"
                                                             : "sync")
      << '\n';
  out << "async_workload " << Fmt(spec.async.request_rate) << ' '
      << Fmt(spec.async.link.access_latency_min) << ' '
      << Fmt(spec.async.link.access_latency_max) << ' '
      << Fmt(spec.async.link.backbone_latency) << ' '
      << Fmt(spec.async.link.jitter) << ' ' << spec.async.link.seed << '\n';
  out << "discovery "
      << (spec.discovery == DiscoveryMode::kQueryFlood ? "flood" : "uniform")
      << '\n';
  out << "query_ttl " << spec.query_ttl << '\n';
  out << "admission "
      << (spec.admission == AdmissionMode::kServedReputation ? "served"
                                                             : "direct")
      << '\n';
  out << "serve_threshold " << Fmt(spec.serve_threshold) << '\n';
  out << "newcomer_serve_prob " << Fmt(spec.newcomer_serve_prob) << '\n';
  const char* mode = spec.newcomer_mode == NewcomerMode::kZero ? "zero"
                     : spec.newcomer_mode == NewcomerMode::kOptimistic
                         ? "optimistic"
                         : "adaptive";
  out << "newcomer_mode " << mode << '\n';
  out << "newcomer_policy " << Fmt(spec.newcomer_policy.optimistic_initial)
      << ' ' << Fmt(spec.newcomer_policy.sensitivity) << ' '
      << spec.newcomer_policy.window << '\n';
  out << "satisfaction_noise " << Fmt(spec.satisfaction_noise) << '\n';
  out << "trust " << Fmt(spec.trust.alpha) << ' '
      << Fmt(spec.trust.refusal_score) << '\n';
  out << "requester_records_refusals "
      << (spec.requester_records_refusals ? 1 : 0) << '\n';
  out << "rate_requester " << (spec.rate_requester ? 1 : 0) << '\n';
  out << "refused_reciprocity_weight "
      << Fmt(spec.refused_reciprocity_weight) << '\n';
  out << "lifecycle " << (spec.lifecycle_enabled ? 1 : 0) << ' '
      << Fmt(spec.rejoin_threshold) << ' ' << spec.assessment_window << ' '
      << Fmt(spec.honest_arrival_prob) << '\n';
  out << "gossip_every " << spec.gossip_every << '\n';
  out << "base_seed " << spec.reputation.base_seed << '\n';
  out << "feedback_push_delta " << Fmt(spec.reputation.feedback_push_delta)
      << '\n';
  out << "xi " << Fmt(spec.reputation.aggregation.gossip.xi) << '\n';
  out << "compute_rms " << (spec.compute_rms ? 1 : 0) << '\n';
  out << "update_queue_capacity " << spec.update_queue_capacity << '\n';
  out << "seed " << spec.seed << '\n';

  out << "profiles " << spec.profiles.size() << '\n';
  for (size_t i = 0; i < spec.profiles.size();) {
    size_t j = i + 1;
    while (j < spec.profiles.size() &&
           spec.profiles[j].strategy == spec.profiles[i].strategy &&
           spec.profiles[j].service_quality ==
               spec.profiles[i].service_quality) {
      ++j;
    }
    out << "profile " << (j - i) << ' '
        << StrategyToken(spec.profiles[i].strategy) << ' '
        << Fmt(spec.profiles[i].service_quality) << '\n';
    i = j;
  }

  if (spec.collusion) {
    out << "collusion "
        << (spec.collusion_report_zero_for_outsiders ? 1 : 0) << ' '
        << spec.collusion->groups.size() << '\n';
    out << "colluders";
    AppendIds(spec.collusion->colluders, &out);
    out << '\n';
    for (const std::vector<NodeId>& group : spec.collusion->groups) {
      out << "group";
      AppendIds(group, &out);
      out << '\n';
    }
  }

  for (const ScenarioPhase& phase : spec.phases) {
    out << "phase " << phase.name << ' ' << phase.start_round << ' '
        << phase.end_round << ' ' << (phase.collusion_active ? 1 : 0) << ' '
        << Fmt(phase.packet_loss_prob) << ' ' << Fmt(phase.churn_fraction)
        << ' ' << (phase.whitewashing_active ? 1 : 0) << ' '
        << (phase.adaptive_collusion ? 1 : 0) << ' '
        << Fmt(phase.adaptive_suspend_below) << ' '
        << Fmt(phase.adaptive_resume_above) << '\n';
  }
  out << "end\n";
  return out.str();
}

Result<GeneratedScenario> SpecFromText(const std::string& text) {
  std::istringstream in(text);
  std::string raw;
  size_t line_number = 0;
  bool saw_header = false;
  bool saw_end = false;

  GeneratedScenario scenario;
  ScenarioSpec& spec = scenario.spec;
  size_t declared_profiles = 0;
  size_t declared_groups = 0;
  bool saw_graph = false;
  bool in_collusion = false;

  while (std::getline(in, raw)) {
    ++line_number;
    if (saw_end) {
      Line check(raw, line_number);
      if (!check.empty() && check.key()[0] != '#') {
        return check.Error("content after 'end'");
      }
      continue;
    }
    Line line(raw, line_number);
    if (line.empty() || line.key()[0] == '#') continue;
    if (!saw_header) {
      if (raw != kHeader) {
        return line.Error(std::string("expected header '") + kHeader + "'");
      }
      saw_header = true;
      continue;
    }
    const std::string& key = line.key();

    if (key == "name") {
      DGT_ASSIGN_OR_RETURN(scenario.name, line.Token());
    } else if (key == "index") {
      DGT_ASSIGN_OR_RETURN(scenario.index, line.U64());
    } else if (key == "graph") {
      // Exactly one, before 'collusion': the group table and every
      // collusion id are sized and checked by its node count.
      if (saw_graph) return line.Error("more than one 'graph' record");
      saw_graph = true;
      DGT_ASSIGN_OR_RETURN(std::string topo, line.Token());
      if (topo == "pa") {
        scenario.graph.topology = FuzzTopology::kPreferentialAttachment;
      } else if (topo == "complete") {
        scenario.graph.topology = FuzzTopology::kComplete;
      } else if (topo == "ring") {
        scenario.graph.topology = FuzzTopology::kRing;
      } else {
        return line.Error("unknown topology '" + topo + "'");
      }
      DGT_ASSIGN_OR_RETURN(scenario.graph.num_nodes, line.U32());
      DGT_ASSIGN_OR_RETURN(scenario.graph.degree, line.U32());
      DGT_ASSIGN_OR_RETURN(scenario.graph.seed, line.U64());
    } else if (key == "num_rounds") {
      DGT_ASSIGN_OR_RETURN(spec.num_rounds, line.U32());
    } else if (key == "execution") {
      DGT_ASSIGN_OR_RETURN(std::string v, line.Token());
      if (v == "sync") {
        spec.execution = ExecutionMode::kSynchronousRounds;
      } else if (v == "async") {
        spec.execution = ExecutionMode::kAsyncEventDriven;
      } else {
        return line.Error("unknown execution mode '" + v + "'");
      }
    } else if (key == "async_workload") {
      DGT_ASSIGN_OR_RETURN(spec.async.request_rate, line.Double());
      DGT_ASSIGN_OR_RETURN(spec.async.link.access_latency_min,
                           line.Double());
      DGT_ASSIGN_OR_RETURN(spec.async.link.access_latency_max,
                           line.Double());
      DGT_ASSIGN_OR_RETURN(spec.async.link.backbone_latency, line.Double());
      DGT_ASSIGN_OR_RETURN(spec.async.link.jitter, line.Double());
      DGT_ASSIGN_OR_RETURN(spec.async.link.seed, line.U64());
    } else if (key == "discovery") {
      DGT_ASSIGN_OR_RETURN(std::string v, line.Token());
      if (v == "flood") {
        spec.discovery = DiscoveryMode::kQueryFlood;
      } else if (v == "uniform") {
        spec.discovery = DiscoveryMode::kUniformRandom;
      } else {
        return line.Error("unknown discovery mode '" + v + "'");
      }
    } else if (key == "query_ttl") {
      DGT_ASSIGN_OR_RETURN(spec.query_ttl, line.U32());
    } else if (key == "admission") {
      DGT_ASSIGN_OR_RETURN(std::string v, line.Token());
      if (v == "served") {
        spec.admission = AdmissionMode::kServedReputation;
      } else if (v == "direct") {
        spec.admission = AdmissionMode::kDirectTrust;
      } else {
        return line.Error("unknown admission mode '" + v + "'");
      }
    } else if (key == "serve_threshold") {
      DGT_ASSIGN_OR_RETURN(spec.serve_threshold, line.Double());
    } else if (key == "newcomer_serve_prob") {
      DGT_ASSIGN_OR_RETURN(spec.newcomer_serve_prob, line.Double());
    } else if (key == "newcomer_mode") {
      DGT_ASSIGN_OR_RETURN(std::string v, line.Token());
      if (v == "zero") {
        spec.newcomer_mode = NewcomerMode::kZero;
      } else if (v == "optimistic") {
        spec.newcomer_mode = NewcomerMode::kOptimistic;
      } else if (v == "adaptive") {
        spec.newcomer_mode = NewcomerMode::kAdaptive;
      } else {
        return line.Error("unknown newcomer mode '" + v + "'");
      }
    } else if (key == "newcomer_policy") {
      DGT_ASSIGN_OR_RETURN(spec.newcomer_policy.optimistic_initial,
                           line.Double());
      DGT_ASSIGN_OR_RETURN(spec.newcomer_policy.sensitivity, line.Double());
      DGT_ASSIGN_OR_RETURN(spec.newcomer_policy.window, line.U32());
    } else if (key == "satisfaction_noise") {
      DGT_ASSIGN_OR_RETURN(spec.satisfaction_noise, line.Double());
    } else if (key == "trust") {
      DGT_ASSIGN_OR_RETURN(spec.trust.alpha, line.Double());
      DGT_ASSIGN_OR_RETURN(spec.trust.refusal_score, line.Double());
    } else if (key == "requester_records_refusals") {
      DGT_ASSIGN_OR_RETURN(spec.requester_records_refusals, line.Bool());
    } else if (key == "rate_requester") {
      DGT_ASSIGN_OR_RETURN(spec.rate_requester, line.Bool());
    } else if (key == "refused_reciprocity_weight") {
      DGT_ASSIGN_OR_RETURN(spec.refused_reciprocity_weight, line.Double());
    } else if (key == "lifecycle") {
      DGT_ASSIGN_OR_RETURN(spec.lifecycle_enabled, line.Bool());
      DGT_ASSIGN_OR_RETURN(spec.rejoin_threshold, line.Double());
      DGT_ASSIGN_OR_RETURN(spec.assessment_window, line.U32());
      DGT_ASSIGN_OR_RETURN(spec.honest_arrival_prob, line.Double());
    } else if (key == "gossip_every") {
      DGT_ASSIGN_OR_RETURN(spec.gossip_every, line.U32());
    } else if (key == "base_seed") {
      DGT_ASSIGN_OR_RETURN(spec.reputation.base_seed, line.U64());
    } else if (key == "feedback_push_delta") {
      DGT_ASSIGN_OR_RETURN(spec.reputation.feedback_push_delta,
                           line.Double());
    } else if (key == "xi") {
      DGT_ASSIGN_OR_RETURN(spec.reputation.aggregation.gossip.xi,
                           line.Double());
    } else if (key == "compute_rms") {
      DGT_ASSIGN_OR_RETURN(spec.compute_rms, line.Bool());
    } else if (key == "update_queue_capacity") {
      DGT_ASSIGN_OR_RETURN(uint64_t v, line.U64());
      spec.update_queue_capacity = static_cast<size_t>(v);
    } else if (key == "seed") {
      DGT_ASSIGN_OR_RETURN(spec.seed, line.U64());
    } else if (key == "profiles") {
      DGT_ASSIGN_OR_RETURN(uint64_t count, line.U64());
      // One profile per node, and node ids are 32-bit.
      if (count > std::numeric_limits<uint32_t>::max()) {
        return line.Error("profile count exceeds the node id range");
      }
      declared_profiles = count;
      spec.profiles.clear();
    } else if (key == "profile") {
      DGT_ASSIGN_OR_RETURN(uint64_t count, line.U64());
      DGT_ASSIGN_OR_RETURN(std::string strategy, line.Token());
      PeerProfile profile;
      if (strategy == "coop") {
        profile.strategy = PeerStrategy::kCooperative;
      } else if (strategy == "fr") {
        profile.strategy = PeerStrategy::kFreeRider;
      } else if (strategy == "col") {
        profile.strategy = PeerStrategy::kColluder;
      } else {
        return line.Error("unknown strategy '" + strategy + "'");
      }
      DGT_ASSIGN_OR_RETURN(profile.service_quality, line.Double());
      if (count > declared_profiles - spec.profiles.size()) {
        return line.Error("profile runs exceed the declared profile count");
      }
      spec.profiles.insert(spec.profiles.end(), count, profile);
    } else if (key == "collusion") {
      if (!saw_graph) {
        return line.Error("'collusion' before the 'graph' record");
      }
      CollusionPlan plan;
      DGT_ASSIGN_OR_RETURN(spec.collusion_report_zero_for_outsiders,
                           line.Bool());
      DGT_ASSIGN_OR_RETURN(declared_groups, line.U64());
      plan.group_of.assign(scenario.graph.num_nodes, 0);
      spec.collusion = std::move(plan);
      in_collusion = true;
    } else if (key == "colluders") {
      if (!in_collusion) {
        return line.Error("'colluders' before a 'collusion' record");
      }
      DGT_ASSIGN_OR_RETURN(spec.collusion->colluders,
                           ParseIds(line, scenario.graph.num_nodes));
    } else if (key == "group") {
      if (!in_collusion) {
        return line.Error("'group' before a 'collusion' record");
      }
      if (spec.collusion->groups.size() >= declared_groups) {
        return line.Error("more groups than the collusion record declared");
      }
      DGT_ASSIGN_OR_RETURN(std::vector<NodeId> members,
                           ParseIds(line, scenario.graph.num_nodes));
      const uint32_t group_id =
          static_cast<uint32_t>(spec.collusion->groups.size()) + 1;
      for (NodeId member : members) {
        if (spec.collusion->group_of[member] != 0) {
          return line.Error("node listed in two collusion groups");
        }
        spec.collusion->group_of[member] = group_id;
      }
      spec.collusion->groups.push_back(std::move(members));
    } else if (key == "phase") {
      ScenarioPhase phase;
      DGT_ASSIGN_OR_RETURN(phase.name, line.Token());
      DGT_ASSIGN_OR_RETURN(phase.start_round, line.U32());
      DGT_ASSIGN_OR_RETURN(phase.end_round, line.U32());
      DGT_ASSIGN_OR_RETURN(phase.collusion_active, line.Bool());
      DGT_ASSIGN_OR_RETURN(phase.packet_loss_prob, line.Double());
      DGT_ASSIGN_OR_RETURN(phase.churn_fraction, line.Double());
      DGT_ASSIGN_OR_RETURN(phase.whitewashing_active, line.Bool());
      DGT_ASSIGN_OR_RETURN(phase.adaptive_collusion, line.Bool());
      DGT_ASSIGN_OR_RETURN(phase.adaptive_suspend_below, line.Double());
      DGT_ASSIGN_OR_RETURN(phase.adaptive_resume_above, line.Double());
      spec.phases.push_back(std::move(phase));
    } else if (key == "end") {
      saw_end = true;
    } else {
      return line.Error("unknown record '" + key + "'");
    }
    DGT_RETURN_IF_ERROR(line.Done());
  }

  if (!saw_header) {
    return Status::InvalidArgument("spec text is empty (no header)");
  }
  if (!saw_end) {
    return Status::InvalidArgument(
        "spec text is truncated (missing 'end' record)");
  }
  if (spec.profiles.size() != declared_profiles) {
    return Status::InvalidArgument(
        "profile runs do not sum to the declared profile count");
  }
  if (scenario.graph.num_nodes != spec.profiles.size()) {
    return Status::InvalidArgument(
        "graph node count does not match the profile count");
  }
  if (spec.collusion && spec.collusion->groups.size() != declared_groups) {
    return Status::InvalidArgument(
        "group records do not match the declared group count");
  }
  DGT_RETURN_IF_ERROR(
      ValidateScenarioSpec(spec, scenario.graph.num_nodes));
  return scenario;
}

Status SaveSpec(const GeneratedScenario& scenario, const std::string& path,
                const std::string& comment) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << SpecToText(scenario, comment);
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<GeneratedScenario> LoadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SpecFromText(buffer.str());
}

}  // namespace dgt
