// Deterministic, replayable trust-update workloads for the serving
// layer. The serve-vs-batch bit-identity contract (served scores equal a
// batch ReputationSystem run fed the same update sequence) is only
// testable if every driver — stress test, throughput bench, demo — can
// replay its exact schedule; this generator is that schedule's single
// definition.

#ifndef DGT_SERVE_WORKLOAD_H_
#define DGT_SERVE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "serve/service.h"

namespace dgt {

// `count` valid trust updates with pairwise-distinct (observer, target)
// keys, a pure function of (num_nodes, seed) — callers derive the seed
// per epoch (e.g. base + epoch). Distinct keys make the folded TrustMatrix
// independent of queue arrival order, which is what keeps concurrent
// submission deterministic. count is clamped to the number of off-diagonal
// cells.
std::vector<TrustUpdate> MakeDistinctTrustUpdates(uint32_t num_nodes,
                                                  uint64_t seed,
                                                  uint32_t count);

}  // namespace dgt

#endif  // DGT_SERVE_WORKLOAD_H_
