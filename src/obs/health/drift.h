#ifndef STRATLEARN_OBS_HEALTH_DRIFT_H_
#define STRATLEARN_OBS_HEALTH_DRIFT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace stratlearn::obs::health {

/// Statistical change detection over the windowed series the
/// TimeSeriesCollector produces: a Hoeffding two-sample change test per
/// arc ("p_hat"). The trailing reference windows are pooled into one
/// estimate p̂_ref; the current window's p̂ breaches when
/// |p̂_cur − p̂_ref| exceeds the sum of the two Equation-1 deviations at
/// confidence delta/2 each — i.e. the gap is larger than sampling noise
/// can explain at the configured confidence, the same bound
/// (stats/chernoff) the learner's own sequential tests are built on.
/// p̂ is the one quantity a context drift moves: on a fixed-cost graph an
/// arc's mean attempt cost and the fault counters stay put, and the
/// alert selectors `arc_mean_cost:`, `counter_delta:` and `counter_rate:`
/// watch them instead.
///
/// Every state change is reported as a DriftEvent ("detected" /
/// "cleared"); the detector is deterministic — a pure function of the
/// window sequence — so offline replays reproduce online decisions.
struct DriftOptions {
  /// Per-test confidence for the Hoeffding two-window test (split
  /// delta/2 per side).
  double delta = 1e-3;
  /// Minimum pooled-reference and current-window attempts before the
  /// p̂ test is run (below this the Hoeffding radii are vacuous).
  int64_t min_attempts = 32;
  /// Trailing windows pooled into the p̂ reference (reset on
  /// detection, so the post-change regime becomes the new baseline).
  size_t reference_windows = 8;
};

class DriftDetector {
 public:
  /// Per-series summary, exposed for the health report.
  struct SeriesSummary {
    std::string detector;  // "p_hat"
    int64_t arc = -1;
    bool active = false;
    int64_t detections = 0;
  };

  explicit DriftDetector(DriftOptions options);

  /// Feeds one closed window through the detector; returns the state
  /// transitions (usually empty). Windows must arrive in series order.
  std::vector<DriftEvent> Observe(const TimeSeriesWindow& window);

  /// Number of series currently in the "detected" state.
  int64_t ActiveCount() const;

  /// Deterministic summary of every series the detector has state for
  /// (ascending arc ids).
  std::vector<SeriesSummary> Summaries() const;

 private:
  struct PHatState {
    std::deque<ArcWindowStats> reference;
    bool active = false;
    int64_t detections = 0;
  };

  DriftOptions options_;
  std::map<uint32_t, PHatState> p_hat_;
};

}  // namespace stratlearn::obs::health

#endif  // STRATLEARN_OBS_HEALTH_DRIFT_H_
