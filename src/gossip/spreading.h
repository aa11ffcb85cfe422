// Rumor-spreading experiment (empirical check of Theorem 5.1 and of
// Chierichetti et al.'s negative results for plain push / pull on PA
// graphs): rounds until a single piece of information reaches every node.

#ifndef DGT_GOSSIP_SPREADING_H_
#define DGT_GOSSIP_SPREADING_H_

#include <cstdint>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace dgt {

enum class SpreadProtocol {
  kPush,              // informed nodes push to 1 random neighbour
  kDifferentialPush,  // informed nodes push to k_i random neighbours
  kPull,              // uninformed nodes pull from 1 random neighbour
  kPushPull,          // both in the same round
};

struct SpreadingResult {
  uint32_t rounds = 0;
  bool completed = false;  // all nodes informed within max_rounds
  uint64_t messages = 0;
  uint32_t informed = 0;  // final count
};

// Spreads a rumor from `source` until every node of its connected
// component is informed (or max_rounds); `completed` reports whether that
// is every node of the graph. Fails with InvalidArgument if source is out
// of range.
Result<SpreadingResult> SpreadRumor(const Graph& graph, NodeId source,
                                    SpreadProtocol protocol,
                                    uint32_t max_rounds, Rng& rng);

}  // namespace dgt

#endif  // DGT_GOSSIP_SPREADING_H_
