#include "stats/sequential.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/chernoff.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace stratlearn {
namespace {

TEST(SequentialDeltaTest, SeriesSumsToDelta) {
  // sum_i delta * 6/(pi^2 i^2) = delta; check partial sums converge from
  // below.
  double delta = 0.1;
  double partial = 0.0;
  for (int64_t i = 1; i <= 200000; ++i) {
    partial += SequentialDelta(i, delta);
  }
  EXPECT_LT(partial, delta);
  EXPECT_GT(partial, delta * 0.99);
}

TEST(SequentialDeltaTest, FirstTermValue) {
  double delta = 0.05;
  EXPECT_NEAR(SequentialDelta(1, delta), delta * 6.0 / (kPi * kPi), 1e-12);
}

TEST(SequentialDeltaTest, DecreasesQuadratically) {
  double delta = 0.2;
  EXPECT_NEAR(SequentialDelta(10, delta), SequentialDelta(1, delta) / 100.0,
              1e-12);
}

TEST(SequentialThresholdTest, MatchesSumThresholdAtDeltaI) {
  // Equation 6's threshold equals Equation 2's with delta_i substituted:
  // range * sqrt(n/2 ln(1/delta_i)) with delta_i = 6 delta / (pi^2 i^2).
  int64_t n = 40;
  int64_t i = 17;
  double delta = 0.05, range = 3.0;
  double delta_i = SequentialDelta(i, delta);
  EXPECT_NEAR(SequentialSumThreshold(n, i, delta, range),
              SumThreshold(n, delta_i, range), 1e-9);
}

TEST(SequentialThresholdTest, GrowsWithTrialCount) {
  EXPECT_LT(SequentialSumThreshold(50, 10, 0.1, 1.0),
            SequentialSumThreshold(50, 1000, 0.1, 1.0));
}

TEST(SequentialThresholdTest, GrowsSublinearlyWithSamples) {
  double t100 = SequentialSumThreshold(100, 10, 0.1, 1.0);
  double t400 = SequentialSumThreshold(400, 10, 0.1, 1.0);
  EXPECT_NEAR(t400 / t100, 2.0, 1e-9);  // sqrt scaling
}

TEST(SequentialThresholdTest, IsRangeTimesTheRoundsFactor) {
  // A learner multiplies one factor per round by each neighbour's range;
  // that must be the very double SequentialSumThreshold returns. A
  // quarter of the draws take i <= 3, where the log term is smallest
  // (its argument i^2 pi^2 / (6 delta) never drops below pi^2 / 6 > 1
  // for delta < 1, so the clamp to 0 never fires on valid arguments).
  Rng rng(61);
  for (int trial = 0; trial < 20000; ++trial) {
    const int64_t n = rng.NextInt(1, 1000000);
    const int64_t i = trial % 4 == 0 ? rng.NextInt(1, 3)
                                     : rng.NextInt(1, int64_t{1} << 40);
    const double delta = rng.NextUniform(1e-9, 0.999);
    const double range = trial % 2 == 0
                             ? static_cast<double>(rng.NextInt(1, 500))
                             : rng.NextUniform(1e-3, 1e3);
    EXPECT_EQ(SequentialSumThreshold(n, i, delta, range),
              range * SequentialSumFactor(n, i, delta))
        << "n=" << n << " i=" << i << " delta=" << delta;
  }
  EXPECT_EQ(SequentialSumThreshold(7, 1, 0.99, 3.5),
            3.5 * SequentialSumFactor(7, 1, 0.99));
  EXPECT_GT(SequentialSumFactor(7, 1, 0.99), 0.0);
}

TEST(SequentialThresholdTest, NeverNegative) {
  // Degenerate: huge delta and tiny i could make the log negative;
  // the implementation clamps at zero.
  EXPECT_GE(SequentialSumThreshold(1, 1, 0.99, 1.0), 0.0);
}

}  // namespace
}  // namespace stratlearn
