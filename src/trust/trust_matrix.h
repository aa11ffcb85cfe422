// TrustMatrix: the sparse N x N matrix of direct-interaction trust values
// t_ij in [0, 1] (t_ij = trust of node i in node j). "Generally a node will
// have very small number of neighbours being directly transacted with", so
// rows are stored sparsely, as (j, t_ij) pairs kept strictly increasing in
// j: a row's order depends only on its content, so every float sum over a
// row is a function of what the matrix holds, not of how it was built. A
// missing entry means "no opinion" and is distinct from an explicit
// opinion of 0 (the paper's whitewashing default is initial trust 0, and
// colluders *report* 0 about outsiders).

#ifndef DGT_TRUST_TRUST_MATRIX_H_
#define DGT_TRUST_TRUST_MATRIX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"

namespace dgt {

// The entry with id j in `entries`, whose ids are strictly increasing (a
// TrustMatrix row or a WeightTable's entries), or nullptr if none has it.
const std::pair<NodeId, double>* FindEntry(
    const std::vector<std::pair<NodeId, double>>& entries, NodeId j);

class TrustMatrix {
 public:
  explicit TrustMatrix(uint32_t num_nodes);

  uint32_t num_nodes() const { return static_cast<uint32_t>(rows_.size()); }

  // Sets t_ij. Fails with OutOfRange for bad ids, InvalidArgument for
  // value outside [0, 1] or i == j (self-trust is not modelled).
  Status Set(NodeId i, NodeId j, double value);

  // Removes i's opinion about j (no-op if absent).
  void Erase(NodeId i, NodeId j);

  // t_ij, or 0 if i has no opinion about j (the paper's default).
  double Get(NodeId i, NodeId j) const;

  bool HasOpinion(NodeId i, NodeId j) const;

  // Number of nodes holding an opinion about j (the paper's N_d for j).
  uint32_t OpinionCountAbout(NodeId j) const;

  // Sum over i of t_ij.
  double ColumnSum(NodeId j) const;

  // All (j, t_ij) opinions held by node i, strictly increasing in j.
  const std::vector<std::pair<NodeId, double>>& Row(NodeId i) const {
    return rows_[i];
  }

  // Number of opinions node i holds (the nonzeros of row i).
  uint32_t RowNnz(NodeId i) const {
    return static_cast<uint32_t>(rows_[i].size());
  }

  uint64_t TotalOpinions() const;

  // Dense column j as a length-N vector (0 where no opinion) — the y0
  // input for gossip about node j.
  std::vector<double> DenseColumn(NodeId j) const;

  // Indicator column: 1.0 where i has an opinion about j, else 0 — the g0
  // (Algorithm 1) / count (Algorithm 2) input.
  std::vector<double> OpinionIndicatorColumn(NodeId j) const;

 private:
  // t_ij, or nullptr if i is out of range or holds no opinion about j.
  const double* Find(NodeId i, NodeId j) const;

  // rows_[i] = i's (j, t_ij) pairs, strictly increasing in j.
  std::vector<std::vector<std::pair<NodeId, double>>> rows_;
};

}  // namespace dgt

#endif  // DGT_TRUST_TRUST_MATRIX_H_
