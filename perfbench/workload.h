// Shared types of the benchmark's workloads: the run configuration taken
// from the command line, the metrics a workload reports, and small helpers
// for clocks, seeds and the eq. 18 accuracy check.

#ifndef DGT_PERFBENCH_WORKLOAD_H_
#define DGT_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "trust/trust_matrix.h"
#include "trust/weights.h"

namespace perfbench {

class Trace;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Wall time the timed phase measures.
  double seconds = 10.0;
  bool trace = false;
  // steady_clock nanoseconds at process start: the first set-up is timed
  // from here.
  int64_t process_start_ns = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  // Samples behind a percentile, mean or median; 0 for a single reading.
  uint64_t samples = 0;
  // Computed by subtracting other measured numbers, not timed directly.
  bool derived = false;
};

struct Outcome {
  // Output checks that failed; any entry makes the run exit non-zero
  // without reporting numbers.
  std::vector<std::string> check_failures;
  // Timed operations, and those that failed, were refused or did not
  // converge.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Printed and written to the result file, but not in the result line.
  std::vector<Metric> info;
  std::vector<std::string> notes;
  // gclr_sync: per timed round, its milliseconds and gossip steps (written
  // to the result file).
  std::vector<std::pair<double, double>> ops;

  void Fail(const std::string& why) { check_failures.push_back(why); }
  bool ok() const { return check_failures.empty(); }
};

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

// Every workload builds its overlay as a preferential-attachment graph
// with this attachment degree (the paper's m = 2).
inline constexpr uint32_t kEdgesPerNode = 2;
// Random direct opinions per node.
inline constexpr uint32_t kOpinionsPerNode = 20;
// Convergence tolerance xi for every aggregation.
inline constexpr double kXi = 1e-3;
// Upper limit on the eq. 18 error of a converged aggregation at
// xi = 1e-3; converged runs measure about 1e-5.
inline constexpr double kRmsTolerance = 1e-4;

int64_t NowNs();

inline Metric M(const char* name, double value, const char* unit,
                uint64_t samples, bool derived = false) {
  return Metric{name, value, unit, samples, derived};
}


// Independent input streams derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// ExactGclrVector rows for every (N / max_observers)-th observer, or for
// all when max_observers >= N. Each row costs O(N^2) hash lookups.
struct ExactReference {
  std::vector<dgt::NodeId> observers;
  std::vector<std::vector<double>> rows;
};
dgt::Result<ExactReference> BuildExactReference(const dgt::Graph& graph,
                                                const dgt::TrustMatrix& trust,
                                                const dgt::WeightParams& params,
                                                uint32_t max_observers);

// eq. 18 (AverageRmsError) of the reference observers' rows of
// `estimates` against the exact rows.
dgt::Result<double> RmsError(const ExactReference& reference,
                             const std::vector<std::vector<double>>& estimates);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

Outcome RunGclrSync(const RunConfig& config, Trace* trace);
Outcome RunServeRpc(const RunConfig& config, Trace* trace);

}  // namespace perfbench

#endif  // DGT_PERFBENCH_WORKLOAD_H_
