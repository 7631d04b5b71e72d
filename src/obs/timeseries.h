#ifndef STRATLEARN_OBS_TIMESERIES_H_
#define STRATLEARN_OBS_TIMESERIES_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/status.h"

namespace stratlearn::obs {

/// Collector cadence and retention. Times are microseconds in whatever
/// clock domain the caller advances the collector with — steady-clock
/// microseconds in real runs, or a synthetic "one unit per query" fake
/// clock for byte-deterministic output (the CLI's --obs-clock=fake).
struct TimeSeriesOptions {
  /// Window length. Every AdvanceTo crossing a multiple of this closes
  /// one window.
  int64_t interval_us = 1'000'000;
  /// Most-recent windows retained in the ring; older windows are
  /// evicted (and counted, so reports can say so — never silently).
  size_t capacity = 512;
};

/// Per-histogram activity inside one window.
struct HistogramDelta {
  int64_t count = 0;
  double sum = 0.0;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Per-arc activity inside one window — the windowed estimator series
/// the drift detector (ROADMAP item 5) reads: p̂ over *this window's*
/// attempts, not the run-cumulative estimate, so a shifted context
/// distribution shows up as a moving series instead of being averaged
/// away.
struct ArcWindowStats {
  uint32_t arc = 0;
  int64_t attempts = 0;   // attempts inside the window
  int64_t unblocked = 0;  // successful traversals inside the window
  double cost = 0.0;      // cost paid inside the window

  double PHat() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(unblocked) /
                               static_cast<double>(attempts);
  }
  double MeanCost() const {
    return attempts == 0 ? 0.0 : cost / static_cast<double>(attempts);
  }
};

/// The DriftEvent and AlertEvent fields a window's `drift` and `alerts`
/// entries (and the health report's events) leave out: the window says
/// where they belong, and `t_us` is the emitter's clock.
inline constexpr std::array<std::string_view, 4> kWindowDriftSkip{
    "t_us", "window", "window_start_us", "window_end_us"};
inline constexpr std::array<std::string_view, 2> kWindowAlertSkip{"t_us",
                                                                  "window"};

/// One closed window: the registry's cumulative state at close plus the
/// per-interval deltas against the previous boundary.
struct TimeSeriesWindow {
  int64_t index = 0;  // 0-based since collector start; survives eviction
  int64_t start_us = 0;
  int64_t end_us = 0;
  MetricsSnapshot cumulative;
  std::map<std::string, int64_t> counter_deltas;
  std::map<std::string, HistogramDelta> histogram_deltas;
  /// Arcs with at least one attempt in the window, ascending by arc id.
  std::vector<ArcWindowStats> arcs;
  /// Drift-detector and alert-rule transitions attributed to this
  /// window (fed back through On after the window closed), so
  /// the serialized series itself records every health decision.
  std::vector<DriftEvent> drift;
  std::vector<AlertEvent> alerts;
  /// Decision certificates emitted during the window (audit runs only;
  /// serialized only when nonzero so audit-free series are unchanged).
  int64_t certificates = 0;

  int64_t span_us() const { return end_us - start_us; }
  /// Per-second rate for one counter's delta (0 for a zero-length span).
  double Rate(int64_t delta) const {
    return span_us() <= 0 ? 0.0
                          : static_cast<double>(delta) /
                                (static_cast<double>(span_us()) / 1e6);
  }
};

/// Snapshots a MetricsRegistry on a fixed cadence into ring-buffered
/// windows, deriving per-interval counter deltas/rates, histogram
/// activity, and windowed per-arc p̂ / mean-cost series. The collector
/// is also a TraceSink: tee it next to a file sink and it accumulates
/// ArcAttempt events into the per-arc series (see On).
///
/// Thread-safe throughout (one internal mutex): worker threads may emit
/// ArcAttempt events while another thread drives AdvanceTo. The clock
/// is the *caller's*: nothing here reads a real clock, which is what
/// makes fake-clock runs byte-deterministic. AdvanceTo with a
/// monotonically non-decreasing now closes every elapsed window
/// boundary, so a long quiet stretch yields empty windows (zero deltas)
/// rather than a gap in the series.
class TimeSeriesCollector final : public TraceSink {
 public:
  /// `registry` may be null (per-arc series only).
  TimeSeriesCollector(const MetricsRegistry* registry,
                      TimeSeriesOptions options);

  /// Arc attempts accumulate into the per-arc series. Certificates are
  /// counted into the currently open window, so the series shows the
  /// learner's decision cadence next to the per-arc data that justified
  /// those decisions. Drift/alert transitions are routed back into the
  /// collector (it sits on the same tee as the other sinks) and
  /// attached to the retained window matching the event's window index,
  /// so the series file carries the health decisions alongside the data
  /// that caused them; events for already-evicted windows are dropped.
  /// Every other event passes by without taking the lock.
  void On(const Event& event) override;

  /// Invoked once per closed window (a copy, oldest first), *outside*
  /// the collector's lock — the callback may re-enter the collector
  /// (e.g. a health monitor emitting drift events back through a tee that
  /// includes this collector). Called from whichever thread drives
  /// AdvanceTo/Finalize.
  void SetWindowCallback(std::function<void(const TimeSeriesWindow&)> cb);

  /// Advances the collector clock, closing each window whose boundary
  /// has passed. Non-monotonic calls (now earlier than the current
  /// window start) are ignored.
  void AdvanceTo(int64_t now_us);

  /// AdvanceTo(now_us), then closes the trailing partial window when it
  /// contains any elapsed time. Call once at end of run so the tail of
  /// the series is not lost.
  void Finalize(int64_t now_us);

  /// Copy of the retained windows, oldest first.
  std::vector<TimeSeriesWindow> Windows() const;

  int64_t windows_closed() const;
  int64_t windows_evicted() const;
  /// Start of the currently open window (the last closed boundary).
  int64_t window_start_us() const;

  /// Reinstates a checkpointed cursor and retained-window set into a
  /// *fresh* collector (fails once any window has closed). The delta
  /// baselines (last_*) deliberately stay at zero: a resumed process
  /// starts from a fresh registry, so the first post-resume window's
  /// cumulative-minus-baseline deltas are exactly the activity since
  /// resume — byte-identical to the uninterrupted run's deltas when the
  /// checkpoint fell on a window boundary.
  Status Restore(int64_t window_start_us, int64_t next_index,
                 int64_t evicted, std::vector<TimeSeriesWindow> windows);

  /// "stratlearn-timeseries v1": one JSON header line (schema, cadence,
  /// closed/evicted window counts), then one JSON object per retained
  /// window with counter totals/deltas/rates, gauges, histogram
  /// activity and the per-arc windowed series. Deterministic given a
  /// deterministic clock domain and event stream.
  std::string SerializeJsonl() const;

  /// One retained window as the JSON object line SerializeJsonl writes
  /// (no trailing newline). Static so checkpoint writers can serialize
  /// window copies without holding the collector's lock.
  static std::string SerializeWindowJson(const TimeSeriesWindow& window);

 private:
  struct ArcCumulative {
    int64_t attempts = 0;
    int64_t unblocked = 0;
    double cost = 0.0;
  };

  /// The retained window with this index, or null (evicted or not yet
  /// closed). Caller holds mutex_.
  TimeSeriesWindow* RetainedWindowLocked(int64_t index);

  /// Closes the window [window_start_, end_us). Caller holds mutex_.
  /// When a window callback is set, appends a copy of the closed window
  /// to `closed` for delivery after the lock is released.
  void CloseWindowLocked(int64_t end_us,
                         std::vector<TimeSeriesWindow>* closed);

  mutable std::mutex mutex_;
  const MetricsRegistry* registry_;
  TimeSeriesOptions options_;
  int64_t window_start_ = 0;
  int64_t next_index_ = 0;
  int64_t evicted_ = 0;
  std::deque<TimeSeriesWindow> windows_;
  std::function<void(const TimeSeriesWindow&)> window_callback_;
  std::map<uint32_t, ArcCumulative> arcs_;
  int64_t certificates_ = 0;
  /// State at the last closed boundary, for delta derivation.
  MetricsSnapshot last_cumulative_;
  std::map<uint32_t, ArcCumulative> last_arcs_;
  int64_t last_certificates_ = 0;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_TIMESERIES_H_
