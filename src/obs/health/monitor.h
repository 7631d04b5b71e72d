#ifndef STRATLEARN_OBS_HEALTH_MONITOR_H_
#define STRATLEARN_OBS_HEALTH_MONITOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/health/alerts.h"
#include "obs/health/drift.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"

namespace stratlearn::obs::health {

struct HealthOptions {
  DriftOptions drift;
};

/// One recovery decision, as recorded in the monitor's transcript. The
/// entry carries only what the *decision* depends on (the window and the
/// matched trigger transitions), never the execution outcome: a
/// decide-only offline replay of the same window sequence must
/// reproduce the transcript byte for byte, and outcomes ("applied" vs
/// "skipped_*") depend on what was bound at execution time.
struct RecoveryLogEntry {
  int64_t window = 0;
  std::string rule;     // policy rule id
  std::string trigger;  // e.g. "drift:p_hat" | "alert:latency"
  std::string action;   // "rebaseline", the one action
  int64_t arc = -1;     // always -1: no action targets one arc
  int64_t matched = 0;  // trigger transitions matched in the window
};

/// Hook run after the detectors/rules of one window: receives the
/// closed window plus that window's drift/alert transitions and returns
/// the recovery decisions taken (empty when no policy rule matched).
/// The RecoveryController installs itself here; the monitor stays
/// ignorant of policies so obs keeps no dependency on src/robust.
using RecoveryHook = std::function<std::vector<RecoveryLogEntry>(
    const TimeSeriesWindow&, const std::vector<DriftEvent>&,
    const std::vector<AlertEvent>&)>;

/// Ties the drift detectors and the alert engine to the window stream:
/// feed every closed TimeSeriesWindow (live via
/// TimeSeriesCollector::SetWindowCallback, or offline from a loaded
/// series file) through OnWindow and the monitor runs the detectors,
/// evaluates the rules, forwards every transition to an optional event
/// sink, and keeps the transcript the "stratlearn-health-v1" report
/// renders. Everything here is a pure function of the window sequence,
/// so an offline replay of a serialized series reproduces the online
/// report byte for byte.
class HealthMonitor {
 public:
  /// `registry` (nullable) receives the per-rule "alert_firing.<id>"
  /// gauges for OpenMetrics export.
  HealthMonitor(AlertRuleSet rules, HealthOptions options,
                MetricsRegistry* registry = nullptr);

  /// Drift/alert transitions are forwarded here (nullable; typically
  /// the run's sink tee, so transitions land in the JSONL trace and are
  /// attached to the serialized series windows).
  void set_event_sink(TraceSink* sink) { events_ = sink; }

  /// Installs the recovery decision hook (nullable to uninstall). Runs
  /// at the end of every OnWindow; its returned entries join the
  /// transcript the reports render.
  void set_recovery_hook(RecoveryHook hook) { recovery_ = std::move(hook); }

  /// Processes one closed window. Windows must arrive in series order.
  void OnWindow(const TimeSeriesWindow& window);

  bool AnyFiring() const { return alerts_.AnyFiring(); }
  int64_t FiringCount() const { return alerts_.FiringCount(); }
  int64_t drift_active() const { return drift_.ActiveCount(); }
  /// Windows in the series up to the last one fed, counted from the
  /// window's own index: a window's index survives ring eviction, so a
  /// resumed run and an offline replay of an evicted series report the
  /// same count as the live run.
  int64_t windows_seen() const { return last_window_ + 1; }

  /// Deterministic renderings of the current health state: rule table,
  /// drift-series table, and the full transition transcript.
  std::string RenderText() const;
  /// One "stratlearn-health-v1" JSON document (round-trip precision).
  std::string RenderJson() const;

  const std::vector<DriftEvent>& drift_log() const { return drift_log_; }
  const std::vector<AlertEvent>& alert_log() const { return alert_log_; }
  const std::vector<RecoveryLogEntry>& recovery_log() const {
    return recovery_log_;
  }

 private:
  HealthOptions options_;
  DriftDetector drift_;
  AlertEngine alerts_;
  TraceSink* events_ = nullptr;
  RecoveryHook recovery_;
  int64_t last_window_ = -1;
  std::vector<DriftEvent> drift_log_;
  std::vector<AlertEvent> alert_log_;
  std::vector<RecoveryLogEntry> recovery_log_;
};

}  // namespace stratlearn::obs::health

#endif  // STRATLEARN_OBS_HEALTH_MONITOR_H_
