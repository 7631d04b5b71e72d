#ifndef STRATLEARN_UTIL_RNG_H_
#define STRATLEARN_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace stratlearn {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). All randomness in the library flows through an Rng that the
/// caller seeds, so every experiment is reproducible from its printed seed.
///
/// Not thread-safe; use one Rng per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Reseed(seed); }

  /// Re-initialises the state from `seed`.
  void Reseed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound). `bound` must be positive. Uses
  /// rejection sampling, so the result is exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Bernoulli trial: true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal deviate (Box–Muller; one value per call).
  double NextGaussian();

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Spawns an independent child generator; useful for giving each
  /// repetition of an experiment its own stream.
  Rng Fork();

  /// Raw engine state, for crash-safe checkpointing: restoring a saved
  /// state resumes the exact output stream, which is what makes a
  /// resumed learner run byte-identical to an uninterrupted one.
  std::array<uint64_t, 4> SaveState() const;
  void RestoreState(const std::array<uint64_t, 4>& state);

 private:
  uint64_t state_[4];
};

/// Samples an index in [0, weights.size()) with probability proportional
/// to weights[i], in O(log n) per draw. The left-to-right partial sums
/// are built once; a draw scales one NextDouble by their total and
/// binary-searches for the first partial sum above it. That is the index
/// a linear walk accumulating the same sums picks, bit for bit.
class DiscreteSampler {
 public:
  /// Weights must be non-negative with a positive, finite sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  size_t Next(Rng& rng) const;

  /// The sum of the weights, accumulated left to right.
  double total() const { return partial_sums_.back(); }

 private:
  std::vector<double> partial_sums_;
  /// Returned when rounding puts a draw at or past the total.
  size_t last_positive_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_UTIL_RNG_H_
