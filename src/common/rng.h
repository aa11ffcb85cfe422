// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library takes an explicit 64-bit seed
// and derives its randomness from an Rng instance, so that any experiment
// is exactly reproducible from (code version, seed). The generator is
// xoshiro256** seeded via SplitMix64 — fast, high quality, and stable
// across platforms (unlike std::default_random_engine or the unspecified
// std distributions, which we deliberately avoid).

#ifndef DGT_COMMON_RNG_H_
#define DGT_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dgt {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
uint64_t SplitMix64(uint64_t& state);

// Pure SplitMix64 finalizer: full-avalanche mix of one 64-bit value.
uint64_t Mix64(uint64_t x);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  // Next raw 64 random bits.
  uint64_t NextU64();

  // Uniform in [0, bound). Precondition: bound > 0. Unbiased (rejection).
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  // Index in [0, weights.size()) drawn with probability proportional to
  // weights[i]. Precondition: at least one weight > 0, none negative.
  std::size_t NextDiscrete(const std::vector<double>& weights);

  // k distinct indices sampled uniformly from [0, n) (Floyd's algorithm).
  // Precondition: k <= n. Result order is unspecified but deterministic.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

  // Counter-based stream derivation: an independent generator whose state
  // is a pure function of (this generator's construction seed, stream,
  // counter) — e.g. StreamAt(node, event). It does NOT consume state, so
  // streams can be derived concurrently from many workers and the draw
  // sequence of stream (i, s) is identical no matter how many threads run
  // or in which order streams are instantiated. This is what makes the
  // event-driven engine's draws thread-count invariant.
  Rng StreamAt(uint64_t stream, uint64_t counter) const;

 private:
  uint64_t s_[4];
  uint64_t seed_;  // construction seed, kept for StreamAt derivation
};

}  // namespace dgt

#endif  // DGT_COMMON_RNG_H_
