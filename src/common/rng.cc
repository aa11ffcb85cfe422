#include "common/rng.h"

#include <cassert>

namespace dgt {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  // xoshiro256**
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling over the largest multiple of bound.
  const uint64_t threshold = -bound % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

std::size_t Rng::NextDiscrete(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double x = NextDouble() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) return i;
  }
  // Floating-point slack: return the last positive-weight index.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

std::vector<uint32_t> Rng::SampleWithoutReplacement(uint32_t n, uint32_t k) {
  assert(k <= n);
  // Floyd's algorithm: O(k) expected time, no O(n) scratch.
  std::vector<uint32_t> out;
  out.reserve(k);
  for (uint32_t j = n - k; j < n; ++j) {
    uint32_t t = static_cast<uint32_t>(NextBelow(j + 1));
    bool seen = false;
    for (uint32_t v : out) {
      if (v == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? j : t);
  }
  return out;
}

Rng Rng::StreamAt(uint64_t stream, uint64_t counter) const {
  // Two full-avalanche absorptions over the construction seed; the golden
  // -ratio / SplitMix64 multipliers decorrelate adjacent (stream, counter)
  // pairs, so stream (i, s) and (i, s + 1) share no structure.
  uint64_t state = Mix64(seed_ ^ (stream * 0x9e3779b97f4a7c15ULL));
  state = Mix64(state ^ (counter * 0xbf58476d1ce4e5b9ULL));
  return Rng(state);
}

}  // namespace dgt
