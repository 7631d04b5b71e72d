// Static verification of "stratlearn-alerts v1" rule files (V-AL...).
// The parser is tolerant: every malformed line becomes a diagnostic and
// is dropped, so one typo never hides the findings on the rest of the
// file. ParseAlertRules is also the production loader — the CLI health
// paths refuse to run on a file with blocking findings, so a rule set
// that loads is exactly a rule set that verifies.

#include <set>
#include <string>
#include <vector>

#include "obs/health/alerts.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

namespace {

using obs::health::AlertRule;
using obs::health::AlertRuleSet;
using obs::health::MetricSelector;
using obs::health::ParseMetricSelector;
using obs::health::SelectorIsNonNegative;

/// V-AL003's degeneracy test: on a series that is nonnegative by
/// construction, a non-positive threshold makes the rule a constant —
/// always firing (">= 0", "> -1") or never firing ("< 0", "<= -1") —
/// so it can only ever mislead.
bool ThresholdIsDegenerate(const AlertRule& rule) {
  if (!SelectorIsNonNegative(rule.selector)) return false;
  if (rule.comparator == ">") return rule.threshold < 0.0;
  if (rule.comparator == ">=") return rule.threshold <= 0.0;
  if (rule.comparator == "<") return rule.threshold <= 0.0;
  return rule.threshold < 0.0;  // "<="
}

}  // namespace

AlertRuleSet ParseAlertRules(std::string_view text, DiagnosticSink* sink) {
  AlertRuleSet set;
  std::set<std::string> seen_ids;
  size_t errors_before = sink->num_errors();
  bool have_header = false;
  int line_number = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (!have_header) {
      if (line != "stratlearn-alerts v1") {
        sink->Error("V-AL001", StrFormat("line %d", line_number),
                    "expected the \"stratlearn-alerts v1\" header",
                    "the first non-comment line must be exactly "
                    "'stratlearn-alerts v1'");
        return set;
      }
      have_header = true;
      continue;
    }
    std::string location = StrFormat("line %d", line_number);
    std::vector<std::string> tokens = SplitFields(line);
    if (tokens[0] != "rule") {
      sink->Error("V-AL001", location,
                  StrFormat("unknown directive '%s'", tokens[0].c_str()),
                  "rule lines read: rule <id> <selector> <op> "
                  "<threshold> [for=<N>] [severity=<level>]");
      continue;
    }
    if (tokens.size() < 5) {
      sink->Error("V-AL001", location,
                  "rule line needs at least: rule <id> <selector> <op> "
                  "<threshold>");
      continue;
    }
    AlertRule rule;
    rule.id = tokens[1];
    rule.metric = tokens[2];
    rule.selector = ParseMetricSelector(rule.metric);
    rule.comparator = tokens[3];
    bool line_ok = true;
    if (rule.comparator != ">" && rule.comparator != ">=" &&
        rule.comparator != "<" && rule.comparator != "<=") {
      sink->Error("V-AL001", location,
                  StrFormat("'%s' is not a comparator",
                            rule.comparator.c_str()),
                  "use one of: > >= < <=");
      line_ok = false;
    }
    if (!ParseDouble(tokens[4], &rule.threshold)) {
      sink->Error("V-AL001", location,
                  StrFormat("threshold '%s' is not a number",
                            tokens[4].c_str()));
      line_ok = false;
    }
    for (size_t i = 5; i < tokens.size(); ++i) {
      const std::string& option = tokens[i];
      if (StartsWith(option, "for=")) {
        if (!ParseInt64(option.substr(4), &rule.for_windows)) {
          sink->Error("V-AL001", location,
                      StrFormat("for-duration '%s' is not an integer",
                                option.c_str()));
          line_ok = false;
        }
      } else if (StartsWith(option, "severity=")) {
        rule.severity = option.substr(9);
        if (rule.severity != "warning" && rule.severity != "critical") {
          sink->Error("V-AL001", location,
                      StrFormat("severity '%s' is not a level",
                                rule.severity.c_str()),
                      "use severity=warning or severity=critical");
          line_ok = false;
        }
      } else {
        sink->Error("V-AL001", location,
                    StrFormat("unknown option '%s'", option.c_str()),
                    "options are for=<N> and severity=<level>");
        line_ok = false;
      }
    }
    if (rule.selector.kind == MetricSelector::Kind::kInvalid) {
      sink->Error("V-AL002", location,
                  StrFormat("unknown metric selector '%s'",
                            rule.metric.c_str()),
                  "selectors: counter_delta:<name>, counter_rate:<name>, "
                  "gauge:<name>, histogram_mean:<name>, arc_p_hat:<arc>, "
                  "arc_mean_cost:<arc>, drift_active");
      line_ok = false;
    }
    if (line_ok && rule.for_windows <= 0) {
      sink->Error("V-AL003", location,
                  StrFormat("for-duration %lld is not positive",
                            static_cast<long long>(rule.for_windows)),
                  "a rule must breach for at least one window to fire");
      line_ok = false;
    }
    if (line_ok && ThresholdIsDegenerate(rule)) {
      sink->Error(
          "V-AL003", location,
          StrFormat("threshold %s makes '%s %s %s' constant: the series "
                    "is nonnegative by construction",
                    FormatDouble(rule.threshold, 6).c_str(),
                    rule.metric.c_str(), rule.comparator.c_str(),
                    FormatDouble(rule.threshold, 6).c_str()),
          "pick a positive threshold the series can actually cross");
      line_ok = false;
    }
    if (line_ok && !seen_ids.insert(rule.id).second) {
      sink->Error("V-AL004", location,
                  StrFormat("duplicate rule id '%s'", rule.id.c_str()),
                  "rule ids name OpenMetrics gauges and report rows; "
                  "they must be unique");
      line_ok = false;
    }
    if (line_ok) set.rules.push_back(std::move(rule));
  }
  if (!have_header) {
    sink->Error("V-AL001", StrFormat("line %d", line_number),
                "empty file: missing the \"stratlearn-alerts v1\" header");
    return set;
  }
  if (set.rules.empty() && sink->num_errors() == errors_before) {
    sink->Warning("V-AL005", "",
                  "rule set is empty: the alert engine will never fire",
                  "add at least one rule line, e.g. 'rule gave_up "
                  "counter_delta:robust.gave_up > 0'");
  }
  return set;
}

}  // namespace stratlearn::verify
