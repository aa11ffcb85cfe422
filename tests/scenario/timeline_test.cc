#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/bench_output.h"
#include "scenario/metrics.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(ClassMetricsTest, Rates) {
  ClassMetrics m;
  EXPECT_DOUBLE_EQ(m.SuccessRate(), 0.0);
  EXPECT_DOUBLE_EQ(m.MeanSatisfaction(), 0.0);
  m.requests = 10;
  m.served = 5;
  m.satisfaction_sum = 4.0;
  EXPECT_DOUBLE_EQ(m.SuccessRate(), 0.5);
  EXPECT_DOUBLE_EQ(m.MeanSatisfaction(), 0.8);
}

ScenarioReport TwoPhaseReport() {
  ScenarioReport report;
  ScenarioPhaseReport a;
  a.name = "pre";
  a.start_round = 1;
  a.end_round = 5;
  a.cooperative.requests = 100;
  a.cooperative.served = 80;
  a.cooperative.refused = 20;
  a.epochs = 1;
  a.rms = {0.0};
  ScenarioPhaseReport b;
  b.name = "attack";
  b.start_round = 6;
  b.end_round = 10;
  b.colluder.requests = 40;
  b.colluder.refused = 40;
  b.colluder.lost = 4;
  b.identity_resets = 3;
  b.epochs = 2;
  b.rms = {0.2, 0.4};
  report.phases = {a, b};
  return report;
}

TEST(ScenarioTimelineTest, EmitsOnePointPerPhase) {
  BenchJsonWriter writer("scenario_timeline_test", "");
  // Output disabled (empty dir) still exercises AddPoint bookkeeping.
  AppendScenarioTimeline(TwoPhaseReport(), {{"n", 40.0}}, &writer);
  EXPECT_EQ(writer.path(), "");
}

TEST(ScenarioTimelineTest, WritesGateableFields) {
  std::string dir = EnsureDir("dgt_test_tmp");
  ASSERT_FALSE(dir.empty());
  BenchJsonWriter writer("scenario_timeline_test", dir);
  AppendScenarioTimeline(TwoPhaseReport(), {{"n", 40.0}}, &writer);
  ASSERT_TRUE(writer.Write());

  std::ifstream in(writer.path());
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // One point per phase, keyed by the replicated config field and the
  // phase index; counts carry the suffixes scripts/check_bench_baseline.py
  // gates, RMS the advisory one.
  EXPECT_NE(json.find("\"phase\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"n\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"coop_requests\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"col_refused\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"lost_count\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"identity_resets\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gossip_epochs\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mean_rms\""), std::string::npos);
  std::remove(writer.path().c_str());
}

}  // namespace
}  // namespace dgt
