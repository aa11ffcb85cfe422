// Round-trip exactness of the failure-archive format: for every
// generator-reachable spec shape, SpecFromText(SpecToText(s)) must equal
// s field for field (doubles included — %.17g round-trips IEEE doubles
// exactly), and malformed input must be rejected with a precise
// InvalidArgument, never a partial spec.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/fuzz/spec_generator.h"
#include "scenario/fuzz/spec_text.h"

namespace dgt {
namespace {

void ExpectFieldExact(const GeneratedScenario& a,
                      const GeneratedScenario& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.graph.topology, b.graph.topology);
  EXPECT_EQ(a.graph.num_nodes, b.graph.num_nodes);
  EXPECT_EQ(a.graph.degree, b.graph.degree);
  EXPECT_EQ(a.graph.seed, b.graph.seed);

  const ScenarioSpec& x = a.spec;
  const ScenarioSpec& y = b.spec;
  EXPECT_EQ(x.num_rounds, y.num_rounds);
  EXPECT_EQ(x.execution, y.execution);
  EXPECT_EQ(x.async.request_rate, y.async.request_rate);
  EXPECT_EQ(x.async.link.access_latency_min, y.async.link.access_latency_min);
  EXPECT_EQ(x.async.link.access_latency_max, y.async.link.access_latency_max);
  EXPECT_EQ(x.async.link.backbone_latency, y.async.link.backbone_latency);
  EXPECT_EQ(x.async.link.jitter, y.async.link.jitter);
  EXPECT_EQ(x.async.link.seed, y.async.link.seed);
  EXPECT_EQ(x.discovery, y.discovery);
  EXPECT_EQ(x.query_ttl, y.query_ttl);
  EXPECT_EQ(x.admission, y.admission);
  EXPECT_EQ(x.serve_threshold, y.serve_threshold);
  EXPECT_EQ(x.newcomer_serve_prob, y.newcomer_serve_prob);
  EXPECT_EQ(x.newcomer_mode, y.newcomer_mode);
  EXPECT_EQ(x.newcomer_policy.optimistic_initial,
            y.newcomer_policy.optimistic_initial);
  EXPECT_EQ(x.newcomer_policy.sensitivity, y.newcomer_policy.sensitivity);
  EXPECT_EQ(x.newcomer_policy.window, y.newcomer_policy.window);
  EXPECT_EQ(x.satisfaction_noise, y.satisfaction_noise);
  EXPECT_EQ(x.trust.alpha, y.trust.alpha);
  EXPECT_EQ(x.trust.refusal_score, y.trust.refusal_score);
  EXPECT_EQ(x.requester_records_refusals, y.requester_records_refusals);
  EXPECT_EQ(x.rate_requester, y.rate_requester);
  EXPECT_EQ(x.refused_reciprocity_weight, y.refused_reciprocity_weight);
  EXPECT_EQ(x.lifecycle_enabled, y.lifecycle_enabled);
  EXPECT_EQ(x.rejoin_threshold, y.rejoin_threshold);
  EXPECT_EQ(x.assessment_window, y.assessment_window);
  EXPECT_EQ(x.honest_arrival_prob, y.honest_arrival_prob);
  EXPECT_EQ(x.gossip_every, y.gossip_every);
  EXPECT_EQ(x.reputation.base_seed, y.reputation.base_seed);
  EXPECT_EQ(x.reputation.feedback_push_delta,
            y.reputation.feedback_push_delta);
  EXPECT_EQ(x.reputation.aggregation.gossip.xi,
            y.reputation.aggregation.gossip.xi);
  EXPECT_EQ(x.compute_rms, y.compute_rms);
  EXPECT_EQ(x.update_queue_capacity, y.update_queue_capacity);
  EXPECT_EQ(x.seed, y.seed);

  ASSERT_EQ(x.profiles.size(), y.profiles.size());
  for (size_t i = 0; i < x.profiles.size(); ++i) {
    EXPECT_EQ(x.profiles[i].strategy, y.profiles[i].strategy) << i;
    EXPECT_EQ(x.profiles[i].service_quality, y.profiles[i].service_quality)
        << i;
  }

  ASSERT_EQ(x.collusion.has_value(), y.collusion.has_value());
  EXPECT_EQ(x.collusion_report_zero_for_outsiders,
            y.collusion_report_zero_for_outsiders);
  if (x.collusion) {
    EXPECT_EQ(x.collusion->colluders, y.collusion->colluders);
    EXPECT_EQ(x.collusion->group_of, y.collusion->group_of);
    EXPECT_EQ(x.collusion->groups, y.collusion->groups);
  }

  ASSERT_EQ(x.phases.size(), y.phases.size());
  for (size_t i = 0; i < x.phases.size(); ++i) {
    EXPECT_EQ(x.phases[i].name, y.phases[i].name) << i;
    EXPECT_EQ(x.phases[i].start_round, y.phases[i].start_round) << i;
    EXPECT_EQ(x.phases[i].end_round, y.phases[i].end_round) << i;
    EXPECT_EQ(x.phases[i].collusion_active, y.phases[i].collusion_active)
        << i;
    EXPECT_EQ(x.phases[i].packet_loss_prob, y.phases[i].packet_loss_prob)
        << i;
    EXPECT_EQ(x.phases[i].churn_fraction, y.phases[i].churn_fraction) << i;
    EXPECT_EQ(x.phases[i].whitewashing_active,
              y.phases[i].whitewashing_active)
        << i;
    EXPECT_EQ(x.phases[i].adaptive_collusion,
              y.phases[i].adaptive_collusion)
        << i;
    EXPECT_EQ(x.phases[i].adaptive_suspend_below,
              y.phases[i].adaptive_suspend_below)
        << i;
    EXPECT_EQ(x.phases[i].adaptive_resume_above,
              y.phases[i].adaptive_resume_above)
        << i;
  }
}

TEST(SpecTextTest, RoundTripsEveryGeneratorReachableShape) {
  const SpecGenerator generator(FuzzProfile{});
  for (uint64_t index = 0; index < 120; ++index) {
    const GeneratedScenario original = generator.Generate(index);
    const std::string text = SpecToText(original);
    Result<GeneratedScenario> decoded = SpecFromText(text);
    ASSERT_TRUE(decoded.ok())
        << original.name << ": " << decoded.status().ToString();
    ExpectFieldExact(original, *decoded);
    // And the round trip is a fixed point of the encoding.
    EXPECT_EQ(SpecToText(*decoded), text) << original.name;
  }
}

TEST(SpecTextTest, RoundTripsAsyncExecutionMode) {
  GeneratedScenario original = SpecGenerator(FuzzProfile{}).Generate(7);
  original.spec.lifecycle_enabled = false;  // unsupported in async v1
  for (ScenarioPhase& phase : original.spec.phases) {
    phase.whitewashing_active = false;
  }
  original.spec.execution = ExecutionMode::kAsyncEventDriven;
  original.spec.async.request_rate = 1.75;
  original.spec.async.link.access_latency_min = 0.003;
  original.spec.async.link.access_latency_max = 0.041;
  original.spec.async.link.backbone_latency = 0.017;
  original.spec.async.link.jitter = 0.009;
  original.spec.async.link.seed = 99;
  const std::string text = SpecToText(original);
  Result<GeneratedScenario> decoded = SpecFromText(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectFieldExact(original, *decoded);
  EXPECT_EQ(SpecToText(*decoded), text);

  // Unknown execution tokens are rejected, not defaulted.
  std::string bad = text;
  const size_t pos = bad.find("execution async");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 15, "execution sometimes");
  EXPECT_FALSE(SpecFromText(bad).ok());
}

TEST(SpecTextTest, CommentsAreEmbeddedAndIgnoredOnLoad) {
  const GeneratedScenario original = SpecGenerator(FuzzProfile{}).Generate(3);
  const std::string text =
      SpecToText(original, "violated invariant: finite_scores\nline two");
  EXPECT_NE(text.find("# violated invariant: finite_scores"),
            std::string::npos);
  EXPECT_NE(text.find("# line two"), std::string::npos);
  Result<GeneratedScenario> decoded = SpecFromText(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectFieldExact(original, *decoded);
}

TEST(SpecTextTest, RejectsMalformedInput) {
  const std::string good = SpecToText(SpecGenerator(FuzzProfile{}).Generate(5));
  // fuzz-1-0 (FuzzProfile seed 1, index 0) holds a collusion record.
  const std::string colluding =
      SpecToText(SpecGenerator(FuzzProfile{}).Generate(0));
  const std::string max_u64 = "18446744073709551615";
  // A self-consistent archive of 65,537 cooperative nodes, one above the
  // bound: every record agrees, but its size alone would have the parser
  // size per-node tables before validation.
  const std::string oversized = [] {
    GeneratedScenario big = SpecGenerator(FuzzProfile{}).Generate(5);
    big.graph.num_nodes = 65537;
    PeerProfile coop;
    coop.strategy = PeerStrategy::kCooperative;
    coop.service_quality = 1.0;
    big.spec.profiles.assign(65537, coop);
    big.spec.collusion.reset();
    return SpecToText(big);
  }();

  struct Case {
    const char* label;
    std::string text;
    const char* message_fragment;
  };
  const std::vector<Case> cases = {
      {"empty input", "", "no header"},
      {"wrong header", "dgt_scenario_spec 2\nend\n", "expected header"},
      {"truncated (no end)",
       good.substr(0, good.rfind("end")), "truncated"},
      {"unknown record", [&] {
         std::string t = good;
         return t.insert(t.find("num_rounds"), "mystery_knob 3\n");
       }(), "unknown record"},
      {"trailing tokens", [&] {
         std::string t = good;
         const size_t pos = t.find("\nnum_rounds ");
         const size_t eol = t.find('\n', pos + 1);
         return t.insert(eol, " 99");
       }(), "trailing tokens"},
      {"bad integer", [&] {
         std::string t = good;
         const size_t pos = t.find("query_ttl ");
         const size_t eol = t.find('\n', pos);
         return t.replace(pos, eol - pos, "query_ttl three");
       }(), "bad integer"},
      {"bad flag value", [&] {
         std::string t = good;
         const size_t pos = t.find("compute_rms ");
         const size_t eol = t.find('\n', pos);
         return t.replace(pos, eol - pos, "compute_rms 2");
       }(), "flag must be 0 or 1"},
      {"content after end", good + "stray 1\n", "content after 'end'"},
      {"unknown topology", [&] {
         std::string t = good;
         const size_t pos = t.find("graph ");
         const size_t eol = t.find('\n', pos);
         return t.replace(pos, eol - pos, "graph torus 8 2 1");
       }(), "unknown topology"},
      // Regression: these parsed and validated, yet no gossip round could
      // converge under a NaN xi.
      {"nan xi", [&] {
         std::string t = good;
         const size_t pos = t.find("\nxi ") + 1;
         const size_t eol = t.find('\n', pos);
         return t.replace(pos, eol - pos, "xi nan");
       }(), "xi must be finite and positive"},
      {"nan feedback delta", [&] {
         std::string t = good;
         const size_t pos = t.find("feedback_push_delta ");
         const size_t eol = t.find('\n', pos);
         return t.replace(pos, eol - pos, "feedback_push_delta nan");
       }(), "feedback_push_delta must be finite"},
      // Regression: these crashed the parser. A huge declared profile
      // count was reserved up front, a huge profile run wrapped the
      // declared-count check, and a 'graph' record after 'collusion'
      // left the group table sized for zero nodes.
      {"huge declared profile count", [&] {
         std::string t = colluding;
         const size_t pos = t.find("\nprofiles ") + 1;
         const size_t eol = t.find('\n', pos);
         return t.replace(pos, eol - pos, "profiles " + max_u64);
       }(), "profile count exceeds"},
      {"huge last profile run", [&] {
         std::string t = colluding;
         const size_t pos = t.rfind("\nprofile ") + 9;  // the run's count
         return t.replace(pos, t.find(' ', pos) - pos, max_u64);
       }(), "profile runs exceed"},
      {"graph record after collusion", [&] {
         std::string t = colluding;
         const size_t pos = t.find("\ngraph ") + 1;
         const size_t len = t.find('\n', pos) + 1 - pos;
         const std::string graph = t.substr(pos, len);
         t.erase(pos, len);
         return t.insert(t.find('\n', t.find("\ncollusion ") + 1) + 1,
                         graph);
       }(), "'collusion' before the 'graph' record"},
      {"second graph record", [&] {
         std::string t = colluding;
         const size_t pos = t.find("\ngraph ") + 1;
         return t.insert(pos, t.substr(pos, t.find('\n', pos) + 1 - pos));
       }(), "more than one 'graph' record"},
      // Regression: these were accepted after allocating per-node tables,
      // and an archive declaring 2^32 - 1 nodes would allocate ~80 GB.
      {"graph above the node bound", oversized, "node count exceeds"},
      {"profiles above the node bound", [&] {
         // The graph record at the bound, the profile count above it.
         std::string t = oversized;
         const size_t pos = t.find("\ngraph ") + 1;
         const size_t count = t.find(' ', t.find(' ', pos) + 1) + 1;
         return t.replace(count, t.find(' ', count) - count, "65536");
       }(), "profile count exceeds"},
  };
  for (const Case& c : cases) {
    Result<GeneratedScenario> decoded = SpecFromText(c.text);
    ASSERT_FALSE(decoded.ok()) << c.label;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << c.label;
    EXPECT_NE(decoded.status().message().find(c.message_fragment),
              std::string::npos)
        << c.label << ": " << decoded.status().message();
  }
}

TEST(SpecTextTest, RejectsInconsistentStructure) {
  const SpecGenerator generator(FuzzProfile{});
  // Find a colluding sample so group records exist.
  GeneratedScenario colluding;
  bool found = false;
  for (uint64_t index = 0; index < 64 && !found; ++index) {
    colluding = generator.Generate(index);
    found = colluding.spec.collusion.has_value();
  }
  ASSERT_TRUE(found);
  const std::string good = SpecToText(colluding);

  // Profile runs that do not sum to the declared count.
  {
    std::string t = good;
    const size_t pos = t.find("\nprofile ");
    const size_t eol = t.find('\n', pos + 1);
    t.erase(pos, eol - pos);
    EXPECT_FALSE(SpecFromText(t).ok());
  }
  // A group member listed twice.
  {
    std::string t = good;
    const size_t pos = t.find("\ngroup ");
    const size_t eol = t.find('\n', pos + 1);
    std::string line = t.substr(pos + 1, eol - pos - 1);
    t.insert(eol + 1, line + "\n");
    Result<GeneratedScenario> decoded = SpecFromText(t);
    ASSERT_FALSE(decoded.ok());
  }
  // The decoded spec must also pass full validation: force an invalid
  // phase ordering through otherwise well-formed text.
  {
    std::string t = good;
    t.insert(t.rfind("end"),
             "phase a 5 10 0 0 0 0 0 0 0\nphase b 1 4 0 0 0 0 0 0 0\n");
    Result<GeneratedScenario> decoded = SpecFromText(t);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("sorted by round"),
              std::string::npos)
        << decoded.status().message();
  }
}

}  // namespace
}  // namespace dgt
