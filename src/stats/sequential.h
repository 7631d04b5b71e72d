#ifndef STRATLEARN_STATS_SEQUENTIAL_H_
#define STRATLEARN_STATS_SEQUENTIAL_H_

#include <cstdint>

namespace stratlearn {

/// Support for PIB's sequential hypothesis testing (Section 3.2).
///
/// A single Equation-2 test spends its entire false-positive budget delta
/// at once. PIB instead performs an unbounded series of tests; the i-th
/// test runs at confidence delta_i = delta * 6 / (pi^2 i^2), so that
/// sum_i delta_i = delta and Theorem 1's lifetime guarantee holds.

/// delta_i = delta * 6 / (pi^2 * i^2) for the i-th test (i >= 1).
double SequentialDelta(int64_t test_index, double delta);

/// The factor Equation 6's threshold shares across one test round's
/// neighbours: sqrt(n/2 * ln(i^2 * pi^2 / (6 * delta))) after |S| = n
/// samples of the current strategy, when the cumulative number of
/// (strategy, neighbour) trials so far is `trial_count` = i. A negative
/// log (very small i) is clamped to 0.
double SequentialSumFactor(int64_t n, int64_t trial_count, double delta);

/// Equation 6's threshold on one neighbour's Delta~ sum:
/// range * SequentialSumFactor(n, trial_count, delta), the same double.
/// A learner computes the factor once per round and multiplies it by
/// each neighbour's range (> 0).
double SequentialSumThreshold(int64_t n, int64_t trial_count, double delta,
                              double range);

}  // namespace stratlearn

#endif  // STRATLEARN_STATS_SEQUENTIAL_H_
