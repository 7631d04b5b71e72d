#ifndef STRATLEARN_OBS_HEALTH_ALERTS_H_
#define STRATLEARN_OBS_HEALTH_ALERTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace stratlearn::obs::health {

/// Declarative alerting over the time-series stream: rules loaded from
/// a "stratlearn-alerts v1" file select one windowed series, compare it
/// against a threshold every window, and transition firing/resolved
/// after a configurable number of consecutive breaches. The engine is a
/// pure state machine over TimeSeriesWindow values, so online runs and
/// offline replays of a serialized series reach identical decisions.

/// What a rule watches. Spelled `kind:name` in the config file
/// ("counter_rate:robust.gave_up", "arc_p_hat:3", ...); the bare word
/// "drift_active" selects the number of currently active drift
/// detections, letting a rule page on the detector itself.
struct MetricSelector {
  enum class Kind {
    kInvalid,
    kCounterDelta,    // counter_delta:<name>   per-window increment
    kCounterRate,     // counter_rate:<name>    increments per second
    kGauge,           // gauge:<name>           cumulative gauge value
    kHistogramMean,   // histogram_mean:<name>  mean of window's samples
    kArcPHat,         // arc_p_hat:<arc>        windowed success estimate
    kArcMeanCost,     // arc_mean_cost:<arc>    windowed mean arc cost
    kDriftActive,     // drift_active           active drift detections
  };
  Kind kind = Kind::kInvalid;
  std::string name;  // counter/gauge/histogram name; empty for arcs
  int64_t arc = -1;  // arc id for the arc selectors
};

/// Parses a selector spelling; kind == kInvalid when `text` names no
/// known selector (the V-AL002 verify pass reports that).
MetricSelector ParseMetricSelector(std::string_view text);

/// True when the selector's series is nonnegative by construction
/// (everything except gauges), which the V-AL003 degenerate-threshold
/// pass relies on.
bool SelectorIsNonNegative(const MetricSelector& selector);

/// Evaluates `selector` over one window. Returns false when the series
/// is absent from the window (an arc with no attempts, an unknown
/// counter): the rule neither breaches nor counts toward its streak.
bool EvaluateSelector(const MetricSelector& selector,
                      const TimeSeriesWindow& window, int64_t drift_active,
                      double* out);

/// One parsed rule line:
///   rule <id> <selector> <op> <threshold> [for=<N>] [severity=<level>]
struct AlertRule {
  std::string id;
  std::string metric;  // selector as spelled in the config
  MetricSelector selector;
  std::string comparator = ">";  // ">" | ">=" | "<" | "<="
  double threshold = 0.0;
  int64_t for_windows = 1;  // consecutive breaches required to fire
  std::string severity = "warning";  // "warning" | "critical"
};

struct AlertRuleSet {
  std::vector<AlertRule> rules;
};

/// Evaluates every rule once per closed window and reports the
/// firing/resolved *transitions* as AlertEvents. When a registry is
/// given, each rule also publishes an "alert_firing.<id>" gauge (1
/// firing / 0 not), so the OpenMetrics exporter exposes alert state on
/// its normal cadence.
class AlertEngine {
 public:
  /// Per-rule evaluation state, exposed for the health report.
  struct RuleState {
    int64_t streak = 0;  // consecutive breached windows
    bool firing = false;
    int64_t transitions = 0;
    int64_t last_transition_window = -1;
    double last_value = 0.0;   // selector value in the last window
    bool last_present = false; // was the series present last window?
  };

  AlertEngine(AlertRuleSet rules, MetricsRegistry* registry);

  /// Runs every rule against `window`; returns the transitions (empty
  /// most windows). `drift_active` feeds the drift_active selector.
  std::vector<AlertEvent> Evaluate(const TimeSeriesWindow& window,
                                   int64_t drift_active);

  bool AnyFiring() const;
  int64_t FiringCount() const;
  const AlertRuleSet& rules() const { return rules_; }
  const std::vector<RuleState>& states() const { return states_; }

 private:
  AlertRuleSet rules_;
  MetricsRegistry* registry_;
  std::vector<RuleState> states_;
};

}  // namespace stratlearn::obs::health

#endif  // STRATLEARN_OBS_HEALTH_ALERTS_H_
