#include "robust/fault_plan.h"

#include <cmath>

#include "util/file_util.h"
#include "util/string_util.h"

namespace stratlearn::robust {

namespace {

constexpr std::string_view kHeader = "stratlearn-faultplan v1";

Result<FaultKind> ParseKind(std::string_view name) {
  if (name == "transient") return FaultKind::kTransient;
  if (name == "timeout") return FaultKind::kTimeout;
  if (name == "corrupt") return FaultKind::kCorrupt;
  if (name == "cost_spike") return FaultKind::kCostSpike;
  return Status::InvalidArgument(
      StrFormat("unknown fault kind '%s' (expected transient, timeout, "
                "corrupt or cost_spike)",
                std::string(name).c_str()));
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCostSpike: return "cost_spike";
  }
  return "none";
}

Result<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  ResilienceOptions& r = plan.resilience;
  int line_number = 0;
  bool saw_header = false;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_number;
    std::string clipped = raw.substr(0, raw.find('#'));
    std::string_view line = Trim(clipped);
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kHeader) {
        return Status::InvalidArgument(StrFormat(
            "fault plan must start with '%s'", std::string(kHeader).c_str()));
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string> fields = SplitFields(line);
    const std::string& key = fields[0];
    auto bad = [&](const char* expected) -> Status {
      return Status::InvalidArgument(StrFormat(
          "fault plan line %d: '%s' expects %s", line_number, key.c_str(),
          expected));
    };
    // NaN passes every bound check below and +-inf costs poison every
    // sum downstream, so a plan's real numbers must be finite.
    auto finite = [](const std::string& token, double* out) {
      return ParseDouble(token, out) && std::isfinite(*out);
    };
    if (key == "seed") {
      if (fields.size() != 2 || !ParseInteger(fields[1], &plan.seed)) {
        return bad("one integer");
      }
    } else if (key == "retries") {
      if (fields.size() != 2 || !ParseInteger(fields[1], &r.max_retries)) {
        return bad("one integer");
      }
      if (r.max_retries < 0) return bad("a count >= 0");
    } else if (key == "backoff") {
      if (fields.size() != 4 || !finite(fields[1], &r.backoff_base) ||
          !finite(fields[2], &r.backoff_multiplier) ||
          !finite(fields[3], &r.backoff_cap)) {
        return bad("'<base> <multiplier> <cap>', each a finite number");
      }
      if (r.backoff_base < 0.0 || r.backoff_multiplier < 1.0 ||
          r.backoff_cap < 0.0) {
        return bad("base >= 0, multiplier >= 1, cap >= 0");
      }
    } else if (key == "breaker") {
      if (fields.size() != 3 ||
          !ParseInteger(fields[1], &r.breaker_threshold) ||
          !ParseInteger(fields[2], &r.breaker_cooldown)) {
        return bad("'<threshold> <cooldown>'");
      }
      if (r.breaker_threshold < 0 || r.breaker_cooldown < 1) {
        return bad("threshold >= 0 and cooldown >= 1");
      }
    } else if (key == "fault") {
      FaultRule rule;
      if ((fields.size() != 4 && fields.size() != 5) ||
          !finite(fields[2], &rule.probability) ||
          !ParseInteger(fields[3], &rule.experiment) ||
          (fields.size() == 5 && !finite(fields[4], &rule.magnitude))) {
        return bad("'<kind> <probability> <experiment|-1> [magnitude]' "
                   "with finite numbers");
      }
      Result<FaultKind> kind = ParseKind(fields[1]);
      if (!kind.ok()) {
        return Status::InvalidArgument(StrFormat(
            "fault plan line %d: %s", line_number,
            kind.status().message().c_str()));
      }
      rule.kind = *kind;
      if (rule.probability < 0.0 || rule.probability > 1.0) {
        return bad("a probability in [0, 1]");
      }
      if (rule.experiment < -1) return bad("an experiment index or -1");
      if (rule.magnitude < 1.0) return bad("a magnitude >= 1");
      plan.rules.push_back(rule);
    } else {
      return Status::InvalidArgument(StrFormat(
          "fault plan line %d: unknown directive '%s'", line_number,
          key.c_str()));
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument(StrFormat(
        "fault plan must start with '%s'", std::string(kHeader).c_str()));
  }
  return plan;
}

Result<FaultPlan> FaultPlan::Load(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return Parse(*text);
}

std::string FaultPlan::Serialize() const {
  std::string out(kHeader);
  out += StrFormat("\nseed %llu\nretries %d\nbackoff %s %s %s\n"
                   "breaker %d %lld\n",
                   static_cast<unsigned long long>(seed),
                   resilience.max_retries,
                   FormatDouble(resilience.backoff_base, 17).c_str(),
                   FormatDouble(resilience.backoff_multiplier, 17).c_str(),
                   FormatDouble(resilience.backoff_cap, 17).c_str(),
                   resilience.breaker_threshold,
                   static_cast<long long>(resilience.breaker_cooldown));
  for (const FaultRule& rule : rules) {
    out += StrFormat("fault %s %s %d %s\n", FaultKindName(rule.kind),
                     FormatDouble(rule.probability, 17).c_str(),
                     rule.experiment,
                     FormatDouble(rule.magnitude, 17).c_str());
  }
  return out;
}

bool FaultPlan::ZeroFault() const {
  for (const FaultRule& rule : rules) {
    if (rule.probability > 0.0 && rule.kind != FaultKind::kNone) return false;
  }
  return true;
}

}  // namespace stratlearn::robust
