// Static verification of "stratlearn-recovery v1" policy files
// (V-RC...). Like the alert passes, the parser doubles as the
// production loader: every malformed line becomes a diagnostic and is
// dropped, and the CLI recovery paths refuse to run on a file with
// blocking findings, so a policy that loads is exactly a policy that
// verifies.

#include <set>
#include <string>
#include <vector>

#include "robust/recovery/policy.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

namespace {

using robust::IsKnownRecoveryAction;
using robust::RecoveryPolicy;
using robust::RecoveryRule;

bool IsKnownTrigger(const std::string& trigger) {
  if (trigger == "drift:p_hat" || trigger == "drift:any") return true;
  return StartsWith(trigger, "alert:") && trigger.size() > 6;
}

}  // namespace

RecoveryPolicy ParseRecoveryPolicy(std::string_view text,
                                   DiagnosticSink* sink) {
  RecoveryPolicy policy;
  std::set<std::string> seen_ids;
  size_t errors_before = sink->num_errors();
  bool have_header = false;
  int line_number = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_number;
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (!have_header) {
      if (line != "stratlearn-recovery v1") {
        sink->Error("V-RC001", StrFormat("line %d", line_number),
                    "expected the \"stratlearn-recovery v1\" header",
                    "the first non-comment line must be exactly "
                    "'stratlearn-recovery v1'");
        return policy;
      }
      have_header = true;
      continue;
    }
    std::string location = StrFormat("line %d", line_number);
    std::vector<std::string> tokens = SplitFields(line);
    if (tokens[0] != "on") {
      sink->Error("V-RC001", location,
                  StrFormat("unknown directive '%s'", tokens[0].c_str()),
                  "policy lines read: on <trigger> rebaseline [id=<name>] "
                  "[cooldown=<windows>]");
      continue;
    }
    if (tokens.size() < 3) {
      sink->Error("V-RC001", location,
                  "on line needs at least: on <trigger> <action>");
      continue;
    }
    RecoveryRule rule;
    rule.trigger = tokens[1];
    rule.action = tokens[2];
    bool line_ok = true;
    if (!IsKnownTrigger(rule.trigger)) {
      sink->Error("V-RC002", location,
                  StrFormat("unknown trigger '%s'", rule.trigger.c_str()),
                  "triggers: drift:p_hat, drift:any, alert:<rule-id>, "
                  "alert:any");
      line_ok = false;
    }
    if (!IsKnownRecoveryAction(rule.action)) {
      sink->Error("V-RC003", location,
                  StrFormat("unknown action '%s'", rule.action.c_str()),
                  "the one action is rebaseline");
      line_ok = false;
    }
    for (size_t i = 3; i < tokens.size(); ++i) {
      const std::string& option = tokens[i];
      if (StartsWith(option, "id=")) {
        rule.id = option.substr(3);
        if (rule.id.empty()) {
          sink->Error("V-RC001", location, "id= option is empty");
          line_ok = false;
        }
      } else if (StartsWith(option, "cooldown=")) {
        if (!ParseInt64(option.substr(9), &rule.cooldown) ||
            rule.cooldown < 0) {
          sink->Error("V-RC003", location,
                      StrFormat("cooldown '%s' is not a nonnegative "
                                "integer",
                                option.c_str()));
          line_ok = false;
        }
      } else {
        sink->Error("V-RC001", location,
                    StrFormat("unknown option '%s'", option.c_str()),
                    "options are id=<name> and cooldown=<windows>");
        line_ok = false;
      }
    }
    if (rule.id.empty()) rule.id = rule.trigger + "->" + rule.action;
    if (line_ok && !seen_ids.insert(rule.id).second) {
      sink->Error("V-RC004", location,
                  StrFormat("duplicate rule id '%s'", rule.id.c_str()),
                  "rule ids name recovery certificates and report rows; "
                  "they must be unique (set id=<name> explicitly)");
      line_ok = false;
    }
    if (line_ok) policy.rules.push_back(std::move(rule));
  }
  if (!have_header) {
    sink->Error("V-RC001", StrFormat("line %d", line_number),
                "empty file: missing the \"stratlearn-recovery v1\" "
                "header");
    return policy;
  }
  if (policy.rules.empty() && sink->num_errors() == errors_before) {
    sink->Warning("V-RC005", "",
                  "policy has no rules: the recovery controller will "
                  "never act",
                  "add at least one line, e.g. 'on drift:p_hat "
                  "rebaseline'");
  }
  return policy;
}

}  // namespace stratlearn::verify
