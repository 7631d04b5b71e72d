#include "obs/health/monitor.h"

#include <utility>

#include "obs/event_json.h"
#include "obs/json_writer.h"
#include "util/string_util.h"

namespace stratlearn::obs::health {

namespace {

/// Fixed significant digits for the text report, matching the other
/// reports (`series`, explain).
std::string Num(double v) { return FormatDouble(v, 6); }

}  // namespace

HealthMonitor::HealthMonitor(AlertRuleSet rules, HealthOptions options,
                             MetricsRegistry* registry)
    : options_(std::move(options)),
      drift_(options_.drift),
      alerts_(std::move(rules), registry) {}

void HealthMonitor::OnWindow(const TimeSeriesWindow& window) {
  last_window_ = window.index;
  std::vector<DriftEvent> drift_events = drift_.Observe(window);
  for (const DriftEvent& e : drift_events) {
    if (events_ != nullptr) events_->On(e);
    drift_log_.push_back(e);
  }
  std::vector<AlertEvent> alert_events =
      alerts_.Evaluate(window, drift_.ActiveCount());
  for (const AlertEvent& e : alert_events) {
    if (events_ != nullptr) events_->On(e);
    alert_log_.push_back(e);
  }
  if (recovery_) {
    std::vector<RecoveryLogEntry> decisions =
        recovery_(window, drift_events, alert_events);
    for (RecoveryLogEntry& d : decisions) {
      recovery_log_.push_back(std::move(d));
    }
  }
}

std::string HealthMonitor::RenderText() const {
  std::string out;
  int64_t firing = alerts_.FiringCount();
  out += StrFormat("health: %s\n",
                   firing > 0 ? StrFormat("FIRING (%lld rule%s)",
                                          static_cast<long long>(firing),
                                          firing == 1 ? "" : "s")
                                    .c_str()
                              : "healthy");
  out += StrFormat(
      "windows_seen=%lld last_window=%lld drift_active=%lld\n",
      static_cast<long long>(windows_seen()),
      static_cast<long long>(last_window_),
      static_cast<long long>(drift_.ActiveCount()));
  const std::vector<AlertRule>& rules = alerts_.rules().rules;
  if (!rules.empty()) {
    out += "alerts:\n";
    for (size_t i = 0; i < rules.size(); ++i) {
      const AlertRule& rule = rules[i];
      const AlertEngine::RuleState& state = alerts_.states()[i];
      out += StrFormat(
          "  %-24s %-8s %s %s %s for=%lld state=%s transitions=%lld",
          rule.id.c_str(), rule.severity.c_str(), rule.metric.c_str(),
          rule.comparator.c_str(), Num(rule.threshold).c_str(),
          static_cast<long long>(rule.for_windows),
          state.firing ? "firing" : "ok",
          static_cast<long long>(state.transitions));
      if (state.last_transition_window >= 0) {
        out += StrFormat(" last_transition_window=%lld",
                         static_cast<long long>(
                             state.last_transition_window));
      }
      if (state.last_present) {
        out += StrFormat(" last_value=%s", Num(state.last_value).c_str());
      }
      out += "\n";
    }
  }
  std::vector<DriftDetector::SeriesSummary> summaries = drift_.Summaries();
  if (!summaries.empty()) {
    out += "drift:\n";
    for (const DriftDetector::SeriesSummary& s : summaries) {
      std::string series =
          StrFormat("arc %lld", static_cast<long long>(s.arc));
      out += StrFormat("  %-10s %-24s %s detections=%lld\n",
                       s.detector.c_str(), series.c_str(),
                       s.active ? "active" : "quiet",
                       static_cast<long long>(s.detections));
    }
  }
  if (!drift_log_.empty() || !alert_log_.empty()) {
    out += "transitions:\n";
    // Merge the two logs by window (each is already in window order);
    // drift decisions precede alert decisions within a window, matching
    // evaluation order.
    size_t di = 0;
    size_t ai = 0;
    while (di < drift_log_.size() || ai < alert_log_.size()) {
      bool take_drift =
          di < drift_log_.size() &&
          (ai >= alert_log_.size() ||
           drift_log_[di].window <= alert_log_[ai].window);
      if (take_drift) {
        const DriftEvent& e = drift_log_[di++];
        out += StrFormat(
            "  window %-5lld drift %-10s arc=%lld %s statistic=%s "
            "reference=%s threshold=%s\n",
            static_cast<long long>(e.window), e.detector.c_str(),
            static_cast<long long>(e.arc), e.state.c_str(),
            Num(e.statistic).c_str(), Num(e.reference).c_str(),
            Num(e.threshold).c_str());
      } else {
        const AlertEvent& e = alert_log_[ai++];
        out += StrFormat(
            "  window %-5lld alert %-24s %s severity=%s value=%s "
            "threshold=%s\n",
            static_cast<long long>(e.window), e.rule.c_str(),
            e.state.c_str(), e.severity.c_str(), Num(e.value).c_str(),
            Num(e.threshold).c_str());
      }
    }
  }
  if (!recovery_log_.empty()) {
    out += "recovery:\n";
    for (const RecoveryLogEntry& e : recovery_log_) {
      std::string target =
          e.arc >= 0
              ? StrFormat(" arc=%lld", static_cast<long long>(e.arc))
              : std::string();
      out += StrFormat("  window %-5lld %-16s %s -> %s%s matched=%lld\n",
                       static_cast<long long>(e.window), e.rule.c_str(),
                       e.trigger.c_str(), e.action.c_str(), target.c_str(),
                       static_cast<long long>(e.matched));
    }
  }
  return out;
}

std::string HealthMonitor::RenderJson() const {
  JsonWriter w(JsonWriter::kRoundTripDigits);
  w.BeginObject();
  w.Key("schema").Value("stratlearn-health-v1");
  w.Key("healthy").Value(!alerts_.AnyFiring());
  w.Key("windows_seen").Value(windows_seen());
  w.Key("last_window").Value(last_window_);
  w.Key("drift").BeginObject();
  w.Key("active").Value(drift_.ActiveCount());
  w.Key("series").BeginArray();
  for (const DriftDetector::SeriesSummary& s : drift_.Summaries()) {
    w.BeginObject();
    w.Key("detector").Value(s.detector);
    w.Key("arc").Value(s.arc);
    w.Key("active").Value(s.active);
    w.Key("detections").Value(s.detections);
    w.EndObject();
  }
  w.EndArray();
  w.Key("events").BeginArray();
  for (const DriftEvent& e : drift_log_) {
    w.BeginObject();
    w.Key("window").Value(e.window);
    WriteEventFields<kWindowDriftSkip>(w, e);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("alerts").BeginObject();
  w.Key("firing").Value(alerts_.FiringCount());
  w.Key("rules").BeginArray();
  const std::vector<AlertRule>& rules = alerts_.rules().rules;
  for (size_t i = 0; i < rules.size(); ++i) {
    const AlertRule& rule = rules[i];
    const AlertEngine::RuleState& state = alerts_.states()[i];
    w.BeginObject();
    w.Key("id").Value(rule.id);
    w.Key("severity").Value(rule.severity);
    w.Key("metric").Value(rule.metric);
    w.Key("comparator").Value(rule.comparator);
    w.Key("threshold").Value(rule.threshold);
    w.Key("for_windows").Value(rule.for_windows);
    w.Key("state").Value(state.firing ? "firing" : "ok");
    w.Key("transitions").Value(state.transitions);
    w.Key("last_transition_window").Value(state.last_transition_window);
    w.Key("last_value").Value(state.last_value);
    w.Key("last_present").Value(state.last_present);
    w.EndObject();
  }
  w.EndArray();
  w.Key("events").BeginArray();
  for (const AlertEvent& e : alert_log_) {
    w.BeginObject();
    w.Key("window").Value(e.window);
    WriteEventFields<kWindowAlertSkip>(w, e);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // The recovery transcript only appears when a policy produced
  // decisions, so reports from policy-less runs keep their historical
  // byte layout (golden fixtures, online-vs-offline diffs).
  if (!recovery_log_.empty()) {
    w.Key("recovery").BeginArray();
    for (const RecoveryLogEntry& e : recovery_log_) {
      w.BeginObject();
      w.Key("window").Value(e.window);
      w.Key("rule").Value(e.rule);
      w.Key("trigger").Value(e.trigger);
      w.Key("action").Value(e.action);
      w.Key("arc").Value(e.arc);
      w.Key("matched").Value(e.matched);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  return w.Take() + "\n";
}

}  // namespace stratlearn::obs::health
