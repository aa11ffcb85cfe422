#include "trust/weights.h"

#include <cmath>
#include <string>

namespace dgt {

Status WeightParams::Validate() const {
  if (!(std::isfinite(a) && a >= 1.0)) {
    return Status::InvalidArgument(
        "weight base a must be finite and >= 1, got " + std::to_string(a));
  }
  if (!(std::isfinite(b) && b >= 0.0)) {
    return Status::InvalidArgument(
        "weight slope b must be finite and >= 0, got " + std::to_string(b));
  }
  // a^b is the largest weight, reached at t = 1.
  if (!std::isfinite(Weight(1.0))) {
    return Status::InvalidArgument("largest weight a^b overflows for a = " +
                                   std::to_string(a) + ", b = " +
                                   std::to_string(b));
  }
  return Status::OK();
}

double WeightParams::Weight(double t) const { return std::pow(a, b * t); }

Result<WeightTable> WeightTable::Build(const TrustMatrix& trust, NodeId owner,
                                       const WeightParams& params) {
  DGT_RETURN_IF_ERROR(params.Validate());
  if (owner >= trust.num_nodes()) {
    return Status::OutOfRange("weight table owner out of range");
  }
  std::vector<std::pair<NodeId, double>> sorted_entries;
  sorted_entries.reserve(trust.RowNnz(owner));
  double total_excess = 0.0;
  for (const auto& [i, t] : trust.Row(owner)) {
    const double w = params.Weight(t);
    sorted_entries.emplace_back(i, w);
    total_excess += w - 1.0;
  }
  return WeightTable(owner, std::move(sorted_entries), total_excess);
}

double WeightTable::Weight(NodeId i) const {
  const std::pair<NodeId, double>* entry = FindEntry(sorted_entries_, i);
  return entry == nullptr ? 1.0 : entry->second;
}

double WeightTable::ExcessWeightSum(const std::vector<NodeId>& nodes) const {
  double sum = 0.0;
  for (NodeId i : nodes) sum += Weight(i) - 1.0;
  return sum;
}

}  // namespace dgt
