#include <cmath>
#include <limits>
#include <string>

#include "stats/chernoff.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

namespace {

bool ParseBoolValue(std::string_view value, bool* out) {
  if (value == "true" || value == "1") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "0") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

LearnerConfig ParseLearnerConfig(std::string_view text,
                                 DiagnosticSink* sink) {
  LearnerConfig config;
  std::vector<std::string> lines = Split(text, '\n');
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    size_t comment = line.find_first_of("#%");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = Trim(line);
    if (line.empty()) continue;
    std::string location = StrFormat("line %zu", i + 1);
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      sink->Error("V-C007", location,
                  StrFormat("cannot parse '%s'",
                            std::string(line.substr(0, 48)).c_str()),
                  "expected 'key = value'");
      continue;
    }
    std::string_view key = Trim(line.substr(0, eq));
    std::string_view value = Trim(line.substr(eq + 1));
    bool parsed = true;
    if (key == "delta") {
      parsed = ParseDouble(value, &config.delta);
    } else if (key == "epsilon") {
      parsed = ParseDouble(value, &config.epsilon);
    } else if (key == "queries") {
      parsed = ParseInt64(value, &config.queries);
    } else if (key == "test_every") {
      parsed = ParseInt64(value, &config.test_every);
    } else if (key == "max_contexts") {
      parsed = ParseInt64(value, &config.max_contexts);
    } else if (key == "schedule_c") {
      parsed = ParseDouble(value, &config.schedule_c);
    } else if (key == "hypotheses") {
      parsed = ParseInt64(value, &config.hypotheses);
    } else if (key == "theorem3") {
      parsed = ParseBoolValue(value, &config.theorem3);
    } else {
      sink->Warning("V-C007", location,
                    StrFormat("unknown config key '%s' is ignored",
                              std::string(key).c_str()),
                    "known keys: delta, epsilon, queries, test_every, "
                    "max_contexts, schedule_c, hypotheses, theorem3");
      continue;
    }
    if (!parsed) {
      sink->Error("V-C007", location,
                  StrFormat("cannot parse value '%s' for key '%s'",
                            std::string(value).c_str(),
                            std::string(key).c_str()));
    }
  }
  return config;
}

void VerifyLearnerConfig(const LearnerConfig& config,
                         const InferenceGraph* graph, DiagnosticSink* sink) {
  bool epsilon_ok = std::isfinite(config.epsilon) && config.epsilon > 0.0;
  if (!epsilon_ok) {
    sink->Error("V-C001", "key epsilon",
                StrFormat("epsilon = %s must be a positive real",
                          FormatDouble(config.epsilon).c_str()),
                "epsilon is the additive optimality slack of Theorem 2");
  }
  bool delta_ok = std::isfinite(config.delta) && config.delta > 0.0 &&
                  config.delta < 1.0;
  if (!delta_ok) {
    sink->Error("V-C002", "key delta",
                StrFormat("delta = %s must lie in the open interval (0, 1)",
                          FormatDouble(config.delta).c_str()),
                "delta is a failure probability; the learners' "
                "constructors abort outside (0, 1)");
  }
  if (config.queries <= 0) {
    sink->Error("V-C006", "key queries",
                StrFormat("queries = %lld must be positive",
                          static_cast<long long>(config.queries)));
  }
  if (config.test_every <= 0) {
    sink->Error("V-C006", "key test_every",
                StrFormat("test_every = %lld must be positive",
                          static_cast<long long>(config.test_every)));
  }
  if (config.max_contexts <= 0) {
    sink->Error("V-C006", "key max_contexts",
                StrFormat("max_contexts = %lld must be positive",
                          static_cast<long long>(config.max_contexts)));
  }
  if (config.hypotheses <= 0) {
    sink->Error("V-C006", "key hypotheses",
                StrFormat("hypotheses = %lld must be positive",
                          static_cast<long long>(config.hypotheses)));
  }
  if (!std::isfinite(config.schedule_c) || config.schedule_c <= 0.0) {
    sink->Error("V-C003", "key schedule_c",
                StrFormat("schedule_c = %s must be a positive real",
                          FormatDouble(config.schedule_c).c_str()));
  } else if (config.hypotheses > 0) {
    // Sum over rounds i of k * delta * c / i^2 = k * c * (pi^2/6) * delta.
    // Theorem 1's lifetime guarantee needs that total to stay <= delta,
    // i.e. k * c <= 6/pi^2.
    double total_factor = static_cast<double>(config.hypotheses) *
                          config.schedule_c / kConvergentScheduleC;
    if (total_factor > 1.0 + 1e-9) {
      sink->Error(
          "V-C003", "key schedule_c",
          StrFormat("the delta_i schedule sums to %s * delta > delta "
                    "(hypotheses = %lld, schedule_c = %s); the lifetime "
                    "failure bound of Theorem 1 no longer holds",
                    FormatDouble(total_factor).c_str(),
                    static_cast<long long>(config.hypotheses),
                    FormatDouble(config.schedule_c).c_str()),
          "use schedule_c <= (6/pi^2) / hypotheses, e.g. the default "
          "6/pi^2 with hypotheses = 1");
    }
  }

  if (graph == nullptr || !epsilon_ok || !delta_ok) return;
  int64_t n = static_cast<int64_t>(graph->num_experiments());
  if (n == 0) return;
  for (ArcId arc : graph->experiments()) {
    double f_neg = graph->FNeg(arc);
    if (f_neg == 0.0) continue;
    int64_t quota =
        config.theorem3
            ? PaoReachQuota(n, f_neg, config.epsilon, config.delta)
            : PaoRetrievalQuota(n, f_neg, config.epsilon, config.delta);
    std::string location = StrFormat("arc %u", arc);
    if (quota == std::numeric_limits<int64_t>::max()) {
      sink->Error("V-C004", location,
                  StrFormat("the Equation %d sample quota m(%s) overflows "
                            "for epsilon = %s, delta = %s",
                            config.theorem3 ? 8 : 7,
                            graph->arc(arc).label.c_str(),
                            FormatDouble(config.epsilon).c_str(),
                            FormatDouble(config.delta).c_str()),
                  "epsilon is too small relative to this graph's F_not "
                  "values; no finite sample meets the quota");
    } else if (quota > config.max_contexts) {
      sink->Warning(
          "V-C005", location,
          StrFormat("the sample quota m(%s) = %lld exceeds max_contexts "
                    "= %lld; PAO would stop with ResourceExhausted "
                    "before meeting it",
                    graph->arc(arc).label.c_str(),
                    static_cast<long long>(quota),
                    static_cast<long long>(config.max_contexts)),
          "raise max_contexts, relax epsilon/delta, or switch to the "
          "Theorem 3 quotas (theorem3 = true)");
    }
  }
}

}  // namespace stratlearn::verify
