#include "stats/sequential.h"

#include <cmath>

#include "util/check.h"
#include "util/math_util.h"

namespace stratlearn {

double SequentialDelta(int64_t test_index, double delta) {
  STRATLEARN_CHECK(test_index >= 1);
  STRATLEARN_CHECK(delta > 0.0 && delta < 1.0);
  double i = static_cast<double>(test_index);
  return delta * 6.0 / (kPi * kPi * i * i);
}

double SequentialSumFactor(int64_t n, int64_t trial_count, double delta) {
  STRATLEARN_CHECK(n > 0);
  STRATLEARN_CHECK(trial_count >= 1);
  STRATLEARN_CHECK(delta > 0.0 && delta < 1.0);
  double i = static_cast<double>(trial_count);
  double log_term = std::log(i * i * kPi * kPi / (6.0 * delta));
  // For very small i the argument can dip below 1 (log negative); the
  // threshold is then conservative at 0 -- never negative.
  if (log_term < 0.0) log_term = 0.0;
  return std::sqrt(static_cast<double>(n) / 2.0 * log_term);
}

double SequentialSumThreshold(int64_t n, int64_t trial_count, double delta,
                              double range) {
  STRATLEARN_CHECK(range > 0.0);
  return range * SequentialSumFactor(n, trial_count, delta);
}

}  // namespace stratlearn
