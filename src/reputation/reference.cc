#include "reputation/reference.h"

namespace dgt {

double ExactGlobalMeanAll(const TrustMatrix& trust, NodeId j) {
  uint32_t n = trust.num_nodes();
  if (n == 0) return 0.0;
  return trust.ColumnSum(j) / static_cast<double>(n);
}

double ExactGlobalMeanOpinators(const TrustMatrix& trust, NodeId j) {
  uint32_t nd = trust.OpinionCountAbout(j);
  if (nd == 0) return 0.0;
  return trust.ColumnSum(j) / static_cast<double>(nd);
}

double ExactGclr(const TrustMatrix& trust, const Graph& graph,
                 const WeightTable& weights, NodeId j, DenominatorMode mode) {
  (void)graph;  // the weighting set is the owner's interaction set
  // eq. (4)/(6): every node i contributes (w_Ii - 1) * t_ij, but w = 1 for
  // nodes the owner never interacted with, so only the weight table's
  // entries (the owner's direct-interaction set — the paper's
  // neighbourhood) matter.
  double excess_num = 0.0;
  for (const auto& [k, w] : weights.SortedEntries()) {
    excess_num += (w - 1.0) * trust.Get(k, j);
  }
  double excess_den = weights.TotalExcessWeight();
  double denom_pop = mode == DenominatorMode::kAllNodes
                         ? static_cast<double>(trust.num_nodes())
                         : static_cast<double>(trust.OpinionCountAbout(j));
  double denominator = excess_den + denom_pop;
  if (denominator <= 0.0) return 0.0;
  return (excess_num + trust.ColumnSum(j)) / denominator;
}

std::vector<double> ExactGlobalMeanAllVector(const TrustMatrix& trust) {
  std::vector<double> out(trust.num_nodes());
  for (NodeId j = 0; j < trust.num_nodes(); ++j) {
    out[j] = ExactGlobalMeanAll(trust, j);
  }
  return out;
}

std::vector<double> ExactGlobalMeanOpinatorsVector(const TrustMatrix& trust) {
  std::vector<double> out(trust.num_nodes());
  for (NodeId j = 0; j < trust.num_nodes(); ++j) {
    out[j] = ExactGlobalMeanOpinators(trust, j);
  }
  return out;
}

std::vector<double> ExactGclrVector(const TrustMatrix& trust,
                                    const Graph& graph,
                                    const WeightTable& weights,
                                    DenominatorMode mode) {
  std::vector<double> out(trust.num_nodes());
  for (NodeId j = 0; j < trust.num_nodes(); ++j) {
    out[j] = ExactGclr(trust, graph, weights, j, mode);
  }
  return out;
}

}  // namespace dgt
