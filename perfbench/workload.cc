#include "workload.h"

#include <chrono>
#include <utility>

#include "collusion/rms_error.h"
#include "common/rng.h"
#include "reputation/reference.h"
#include "stats.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return dgt::Mix64(dgt::Mix64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

dgt::Result<ExactReference> BuildExactReference(const dgt::Graph& graph,
                                                const dgt::TrustMatrix& trust,
                                                const dgt::WeightParams& params,
                                                uint32_t max_observers) {
  const uint32_t n = trust.num_nodes();
  const uint32_t stride = n > max_observers ? n / max_observers : 1;
  ExactReference ref;
  for (uint32_t o = 0; o < n && ref.observers.size() < max_observers;
       o += stride) {
    DGT_ASSIGN_OR_RETURN(dgt::WeightTable weights,
                         dgt::WeightTable::Build(trust, o, params));
    ref.observers.push_back(o);
    ref.rows.push_back(dgt::ExactGclrVector(trust, graph, weights,
                                            dgt::DenominatorMode::kOpinators));
  }
  return ref;
}

dgt::Result<double> RmsError(const ExactReference& reference,
                             const std::vector<std::vector<double>>& estimates) {
  std::vector<std::vector<double>> r;
  for (dgt::NodeId o : reference.observers) r.push_back(estimates[o]);
  return dgt::AverageRmsError(r, reference.rows);
}

double Median(std::vector<double> values) {
  return Samples<double>(std::move(values)).Median();
}

double Mean(const std::vector<double>& values) {
  return Samples<double>(values).Mean();
}

}  // namespace perfbench
