#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace stratlearn {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  // xoshiro256**
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  STRATLEARN_CHECK(bound > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  STRATLEARN_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextUniform(double lo, double hi) {
  STRATLEARN_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // Box–Muller; draws until u1 is nonzero to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Fork() { return Rng(NextUint64()); }

std::array<uint64_t, 4> Rng::SaveState() const {
  return {state_[0], state_[1], state_[2], state_[3]};
}

void Rng::RestoreState(const std::array<uint64_t, 4>& state) {
  for (size_t i = 0; i < 4; ++i) state_[i] = state[i];
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  STRATLEARN_CHECK(!weights.empty());
  partial_sums_.reserve(weights.size());
  double total = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    STRATLEARN_CHECK(weights[i] >= 0.0);
    total += weights[i];
    partial_sums_.push_back(total);
    if (weights[i] > 0.0) last_positive_ = i;
  }
  STRATLEARN_CHECK(total > 0.0 && std::isfinite(total));
}

size_t DiscreteSampler::Next(Rng& rng) const {
  double r = rng.NextDouble() * total();
  auto it = std::upper_bound(partial_sums_.begin(), partial_sums_.end(), r);
  if (it == partial_sums_.end()) return last_positive_;
  return static_cast<size_t>(it - partial_sums_.begin());
}

}  // namespace stratlearn
