#include "collusion/analysis.h"

namespace dgt {

namespace {

// eq. (13)/(15): weighted estimate of j at observer o. The neighbour-
// weighted term always uses the *honest* direct values: the paper assumes
// direct interaction and neighbour reports are collusion-free, only the
// gossiped column is poisoned.
double WeightedEstimate(const TrustMatrix& gossip_source,
                        const TrustMatrix& direct_source,
                        const WeightTable& weights, NodeId j) {
  const double n = static_cast<double>(gossip_source.num_nodes());
  double weighted = 0.0;
  for (const auto& [i, w] : weights.SortedEntries()) {
    weighted += (w - 1.0) * direct_source.Get(i, j);
  }
  double excess = weights.TotalExcessWeight();
  return (gossip_source.ColumnSum(j) + weighted) / (n + excess);
}

}  // namespace

CollusionErrorPrediction PredictCollusionError(const TrustMatrix& honest,
                                               const CollusionPlan& plan,
                                               uint32_t group_size,
                                               const WeightTable& weights,
                                               NodeId j) {
  CollusionErrorPrediction out;
  const double n = static_cast<double>(honest.num_nodes());
  const double c = static_cast<double>(plan.colluders.size());
  const double g = static_cast<double>(group_size);

  double colluder_honest_sum = 0.0;
  for (NodeId i : plan.colluders) colluder_honest_sum += honest.Get(i, j);

  // eq. (12).
  out.delta_old = colluder_honest_sum / n - g * c / (n * n);
  // eq. (17).
  out.shrink_factor = n / (n + weights.TotalExcessWeight());
  out.delta_new = out.shrink_factor * out.delta_old;
  return out;
}

double MeasuredWeightedDelta(const TrustMatrix& honest,
                             const TrustMatrix& colluded,
                             const WeightTable& weights, NodeId j) {
  double real = WeightedEstimate(honest, honest, weights, j);
  double est = WeightedEstimate(colluded, honest, weights, j);
  return real - est;
}

double MeasuredUnweightedDelta(const TrustMatrix& honest,
                               const TrustMatrix& colluded, NodeId j) {
  const double n = static_cast<double>(honest.num_nodes());
  return (honest.ColumnSum(j) - colluded.ColumnSum(j)) / n;
}

}  // namespace dgt
