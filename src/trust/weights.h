// Opinion weights (paper eq. 2): node I weighs the feedback of node i by
//   w_Ii = a_I ^ (b_Ii * t_Ii),   a_I >= 1, b_Ii >= 0,
// so strangers (t = 0, or no relationship) get weight exactly 1 and
// trusted neighbours get weight > 1. The paper fixes a and b as constants
// per node; we keep them configurable.

#ifndef DGT_TRUST_WEIGHTS_H_
#define DGT_TRUST_WEIGHTS_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "trust/trust_matrix.h"

namespace dgt {

struct WeightParams {
  // Base a_I: tuned to the overall quality of service the node receives.
  double a = 4.0;
  // Exponent slope b_Ij: tuned per neighbour; constant here (paper §4.1.2).
  double b = 1.0;

  // Validates a finite a >= 1, a finite b >= 0 and a finite a^b.
  Status Validate() const;

  // w(t) = a^(b*t). Precondition: Validate().ok() and t in [0,1].
  double Weight(double t) const;
};

// Per-node weight table: w_Ii for all i that I has an opinion about
// (everyone else implicitly has weight 1).
class WeightTable {
 public:
  // Builds w_Ii = params.Weight(t_Ii) for every opinion of I. Fails if
  // params are invalid or I out of range.
  static Result<WeightTable> Build(const TrustMatrix& trust, NodeId owner,
                                   const WeightParams& params);

  NodeId owner() const { return owner_; }

  // w_Ii (1 for nodes without a stored weight).
  double Weight(NodeId i) const;

  // sum over all stored entries of (w_Ii - 1) — eq. (17)'s
  // sum_i (w_oi - 1) (strangers contribute 0), accumulated once at Build.
  double TotalExcessWeight() const { return total_excess_; }

  // The stored (i, w_Ii) pairs, strictly increasing in i.
  const std::vector<std::pair<NodeId, double>>& SortedEntries() const {
    return sorted_entries_;
  }

 private:
  WeightTable(NodeId owner,
              std::vector<std::pair<NodeId, double>> sorted_entries,
              double total_excess)
      : owner_(owner),
        sorted_entries_(std::move(sorted_entries)),
        total_excess_(total_excess) {}

  NodeId owner_;
  std::vector<std::pair<NodeId, double>> sorted_entries_;  // ascending id
  double total_excess_ = 0.0;
};

}  // namespace dgt

#endif  // DGT_TRUST_WEIGHTS_H_
