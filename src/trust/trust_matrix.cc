#include "trust/trust_matrix.h"

#include <algorithm>
#include <string>
#include <utility>

namespace dgt {

namespace {

bool ColumnBefore(const std::pair<NodeId, double>& entry, NodeId column) {
  return entry.first < column;
}

// The first entry of a sorted row whose column is not below j.
template <typename Row>
auto LowerBound(Row& row, NodeId j) {
  return std::lower_bound(row.begin(), row.end(), j, ColumnBefore);
}

}  // namespace

const std::pair<NodeId, double>* FindEntry(
    const std::vector<std::pair<NodeId, double>>& entries, NodeId j) {
  auto it = LowerBound(entries, j);
  return it != entries.end() && it->first == j ? &*it : nullptr;
}

TrustMatrix::TrustMatrix(uint32_t num_nodes) : rows_(num_nodes) {}

Status TrustMatrix::Set(NodeId i, NodeId j, double value) {
  if (i >= num_nodes() || j >= num_nodes()) {
    return Status::OutOfRange("trust entry (" + std::to_string(i) + "," +
                              std::to_string(j) + ") out of range");
  }
  if (i == j) {
    return Status::InvalidArgument("self-trust t_ii is not modelled");
  }
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument("trust value must lie in [0,1], got " +
                                   std::to_string(value));
  }
  auto& row = rows_[i];
  auto it = LowerBound(row, j);
  if (it != row.end() && it->first == j) {
    it->second = value;
  } else {
    row.emplace(it, j, value);
  }
  return Status::OK();
}

void TrustMatrix::Erase(NodeId i, NodeId j) {
  if (i >= num_nodes()) return;
  auto& row = rows_[i];
  auto it = LowerBound(row, j);
  if (it != row.end() && it->first == j) row.erase(it);
}

const double* TrustMatrix::Find(NodeId i, NodeId j) const {
  if (i >= num_nodes()) return nullptr;
  const std::pair<NodeId, double>* entry = FindEntry(rows_[i], j);
  return entry == nullptr ? nullptr : &entry->second;
}

double TrustMatrix::Get(NodeId i, NodeId j) const {
  const double* t = Find(i, j);
  return t == nullptr ? 0.0 : *t;
}

bool TrustMatrix::HasOpinion(NodeId i, NodeId j) const {
  return Find(i, j) != nullptr;
}

uint32_t TrustMatrix::OpinionCountAbout(NodeId j) const {
  uint32_t count = 0;
  for (NodeId i = 0; i < num_nodes(); ++i) count += HasOpinion(i, j) ? 1 : 0;
  return count;
}

double TrustMatrix::ColumnSum(NodeId j) const {
  double sum = 0.0;
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (const double* t = Find(i, j)) sum += *t;
  }
  return sum;
}

uint64_t TrustMatrix::TotalOpinions() const {
  uint64_t total = 0;
  for (const auto& row : rows_) total += row.size();
  return total;
}

std::vector<double> TrustMatrix::DenseColumn(NodeId j) const {
  std::vector<double> col(num_nodes(), 0.0);
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (const double* t = Find(i, j)) col[i] = *t;
  }
  return col;
}

std::vector<double> TrustMatrix::OpinionIndicatorColumn(NodeId j) const {
  std::vector<double> col(num_nodes(), 0.0);
  for (NodeId i = 0; i < num_nodes(); ++i) {
    if (HasOpinion(i, j)) col[i] = 1.0;
  }
  return col;
}

}  // namespace dgt
