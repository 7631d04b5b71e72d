#include "obs/health/drift.h"

#include <cmath>
#include <utility>

#include "stats/chernoff.h"

namespace stratlearn::obs::health {

namespace {

DriftEvent MakeEvent(const TimeSeriesWindow& window, uint32_t arc,
                     bool detected, double statistic, double reference,
                     double threshold) {
  DriftEvent e;
  e.t_us = window.end_us;
  e.detector = "p_hat";
  e.state = detected ? "detected" : "cleared";
  e.arc = static_cast<int64_t>(arc);
  e.statistic = statistic;
  e.reference = reference;
  e.threshold = threshold;
  e.window = window.index;
  e.window_start_us = window.start_us;
  e.window_end_us = window.end_us;
  return e;
}

}  // namespace

DriftDetector::DriftDetector(DriftOptions options)
    : options_(std::move(options)) {}

std::vector<DriftEvent> DriftDetector::Observe(
    const TimeSeriesWindow& window) {
  std::vector<DriftEvent> events;
  for (const ArcWindowStats& arc : window.arcs) {
    PHatState& state = p_hat_[arc.arc];
    int64_t ref_attempts = 0;
    int64_t ref_unblocked = 0;
    for (const ArcWindowStats& r : state.reference) {
      ref_attempts += r.attempts;
      ref_unblocked += r.unblocked;
    }
    if (ref_attempts >= options_.min_attempts &&
        arc.attempts >= options_.min_attempts) {
      double p_ref = static_cast<double>(ref_unblocked) /
                     static_cast<double>(ref_attempts);
      double threshold =
          HoeffdingDeviation(ref_attempts, options_.delta / 2.0, 1.0) +
          HoeffdingDeviation(arc.attempts, options_.delta / 2.0, 1.0);
      bool breach = std::fabs(arc.PHat() - p_ref) > threshold;
      if (breach && !state.active) {
        state.active = true;
        ++state.detections;
        events.push_back(MakeEvent(window, arc.arc, /*detected=*/true,
                                   arc.PHat(), p_ref, threshold));
        // Re-baseline: the post-change regime becomes the reference, so
        // the detector clears once the series is stable again instead
        // of alarming forever against the stale mean.
        state.reference.clear();
      } else if (!breach && state.active) {
        state.active = false;
        events.push_back(MakeEvent(window, arc.arc, /*detected=*/false,
                                   arc.PHat(), p_ref, threshold));
      }
    }
    state.reference.push_back(arc);
    while (state.reference.size() > options_.reference_windows) {
      state.reference.pop_front();
    }
  }
  return events;
}

int64_t DriftDetector::ActiveCount() const {
  int64_t active = 0;
  for (const auto& [arc, state] : p_hat_) {
    if (state.active) ++active;
  }
  return active;
}

std::vector<DriftDetector::SeriesSummary> DriftDetector::Summaries() const {
  std::vector<SeriesSummary> out;
  for (const auto& [arc, state] : p_hat_) {
    SeriesSummary s;
    s.detector = "p_hat";
    s.arc = static_cast<int64_t>(arc);
    s.active = state.active;
    s.detections = state.detections;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace stratlearn::obs::health
