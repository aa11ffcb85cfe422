// The paper's section-3 connectivity model: peers are "connected to each
// other by an access link followed by a back bone link and then again by
// an access link to the second node". Each node gets a fixed access
// latency (drawn once, deterministic per seed); the backbone contributes
// a shared base latency; optional per-message jitter models queueing.

#ifndef DGT_NET_LINK_MODEL_H_
#define DGT_NET_LINK_MODEL_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace dgt {

struct LinkModelOptions {
  // Access latency per node ~ U[min, max] (drawn once per node).
  double access_latency_min = 0.005;
  double access_latency_max = 0.05;
  // Fixed backbone latency added to every message.
  double backbone_latency = 0.02;
  // Per-message jitter ~ U[0, jitter] (queueing delay).
  double jitter = 0.01;
  uint64_t seed = 1;
};

class LinkModel {
 public:
  // Fails with InvalidArgument on a negative or non-finite latency or
  // jitter, or min > max, and —
  // once the per-node access latencies are drawn — on any zero-latency
  // link: the asynchronous engines' conservative lookahead window is
  // bounded below by MinLatency(), and a zero lower bound degenerates it
  // to an empty window (no event could ever be batched). The error names
  // the offending edge (the two cheapest endpoints).
  static Result<LinkModel> Create(uint32_t num_nodes,
                                  const LinkModelOptions& options);

  // One-way message latency from u to v:
  //   access(u) + backbone + access(v) + jitter(rng).
  // Precondition: u, v < num_nodes.
  double Latency(NodeId u, NodeId v, Rng& rng) const;

  // Lower bound over every ordered pair u != v of the jitter-free latency
  // (jitter only adds delay), i.e. backbone + the two smallest access
  // latencies. Guaranteed > 0 for any successfully created model; this is
  // the conservative time-window width the parallel async engine uses.
  // +infinity when fewer than two nodes exist (no link to bound).
  double MinLatency() const { return min_latency_; }

 private:
  LinkModel(std::vector<double> access, LinkModelOptions options,
            double min_latency)
      : access_(std::move(access)),
        options_(options),
        min_latency_(min_latency) {}

  std::vector<double> access_;
  LinkModelOptions options_;
  double min_latency_;
};

}  // namespace dgt

#endif  // DGT_NET_LINK_MODEL_H_
