#ifndef STRATLEARN_OBS_EVENTS_H_
#define STRATLEARN_OBS_EVENTS_H_

#include <cstdint>
#include <string>
#include <variant>

namespace stratlearn::obs {

/// Structured runtime events. Timestamps (`t_us`) are microseconds of
/// steady-clock time since the owning Observer was constructed; arc and
/// experiment ids are plain integers so this header stays independent of
/// the graph layer.
///
/// Each event type names its JSONL `"type"` in `kType` and lists its
/// fields once, in serialized order: `Fields(e, f)` calls `f(key,
/// member)` for every member of `e` (const or not). That list is the
/// one schema for the JSONL writer and reader, the Chrome trace args and
/// the audit certificate record (obs/event_json.h). It sets the output
/// order, not the member order, so several types write `t_us` first
/// although their first member is `query_index`. Emitters
/// aggregate-initialise events by position: append new members, never
/// reorder them.

/// A query execution is starting (opens a span; closed by QueryEnd).
struct QueryStartEvent {
  int64_t query_index = 0;
  int64_t t_us = 0;

  static constexpr const char* kType = "query_start";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("query_index", e.query_index);
  }
};

/// A query execution finished. `t_us` is the span's *start*; pairing it
/// with `duration_us` makes the event self-contained for span renderers.
struct QueryEndEvent {
  int64_t query_index = 0;
  int64_t t_us = 0;
  int64_t duration_us = 0;
  double cost = 0.0;
  int64_t attempts = 0;
  int64_t successes = 0;
  bool success = false;

  static constexpr const char* kType = "query_end";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("query_index", e.query_index);
    f("duration_us", e.duration_us);
    f("cost", e.cost);
    f("attempts", e.attempts);
    f("successes", e.successes);
    f("success", e.success);
  }
};

/// One arc traversal attempt inside a query. `cost` is the full price of
/// this attempt — the arc's base cost plus its outcome-dependent extra —
/// so per-arc cost attribution can be rebuilt from the event stream
/// alone (the StrategyProfiler and `stratlearn_cli trace` rely on this).
struct ArcAttemptEvent {
  int64_t query_index = 0;
  int64_t t_us = 0;
  uint32_t arc = 0;
  int experiment = -1;  // -1: deterministic arc
  bool unblocked = false;
  double cost = 0.0;

  static constexpr const char* kType = "arc_attempt";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("query_index", e.query_index);
    f("arc", e.arc);
    f("experiment", e.experiment);
    f("unblocked", e.unblocked);
    f("cost", e.cost);
  }
};

/// A hill-climber (PIB/PALO) adopted a neighbour strategy.
struct ClimbMoveEvent {
  int64_t t_us = 0;
  std::string learner;      // "pib" | "palo"
  int64_t move_index = 0;   // 0-based move ordinal
  int64_t at_context = 0;   // contexts processed when the move fired
  int64_t samples_used = 0; // |S| of the epoch that fired
  std::string swap;         // human-readable sibling swap
  double delta_sum = 0.0;   // winning sum of Delta~ under-estimates
  double threshold = 0.0;   // the Equation-6 threshold it crossed
  double margin = 0.0;      // delta_sum - threshold
  double delta_spent = 0.0; // delta_i consumed from the lifetime budget

  static constexpr const char* kType = "climb_move";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("learner", e.learner);
    f("move_index", e.move_index);
    f("at_context", e.at_context);
    f("samples_used", e.samples_used);
    f("swap", e.swap);
    f("delta_sum", e.delta_sum);
    f("threshold", e.threshold);
    f("margin", e.margin);
    f("delta_spent", e.delta_spent);
  }
};

/// Outcome of one sequential-test round (the best neighbour's numbers,
/// whether or not it crossed the threshold).
struct SequentialTestEvent {
  int64_t t_us = 0;
  std::string learner;  // "pib" | "pib1" | "palo"
  int64_t at_context = 0;
  int64_t samples = 0;
  int64_t trial_count = 0;
  int64_t best_neighbor = -1;
  double best_delta_sum = 0.0;
  double best_threshold = 0.0;
  bool fired = false;

  static constexpr const char* kType = "sequential_test";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("learner", e.learner);
    f("at_context", e.at_context);
    f("samples", e.samples);
    f("trial_count", e.trial_count);
    f("best_neighbor", e.best_neighbor);
    f("best_delta_sum", e.best_delta_sum);
    f("best_threshold", e.best_threshold);
    f("fired", e.fired);
  }
};

/// Per-context progress of QP^A toward its Equation 7/8 sample quotas.
struct QuotaProgressEvent {
  int64_t t_us = 0;
  int64_t context = 0;
  int aimed_experiment = -1;
  bool reached = false;
  int64_t remaining_max = 0;    // largest single remaining quota
  int64_t remaining_total = 0;  // sum of positive remaining quotas

  static constexpr const char* kType = "quota_progress";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("context", e.context);
    f("aimed_experiment", e.aimed_experiment);
    f("reached", e.reached);
    f("remaining_max", e.remaining_max);
    f("remaining_total", e.remaining_total);
  }
};

/// The resilient executor retried a faulted retrieval attempt (or gave
/// up after exhausting its retry budget). One event per *failed*
/// physical attempt; the backoff cost has already been charged to the
/// query's trace when the event is emitted.
struct RetryEvent {
  int64_t t_us = 0;
  int64_t query_index = 0;
  uint32_t arc = 0;
  int experiment = -1;
  std::string fault;         // "transient" | "timeout" | "corrupt"
  int64_t attempt = 0;       // 1-based physical attempt that faulted
  double backoff_cost = 0.0; // 0 when gave_up (no further attempt follows)
  /// Retries exhausted: the attempt is recorded as blocked with the
  /// arc's pessimistic failure cost charged, keeping Delta~ conservative.
  bool gave_up = false;

  static constexpr const char* kType = "retry";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("query_index", e.query_index);
    f("arc", e.arc);
    f("experiment", e.experiment);
    f("fault", e.fault);
    f("attempt", e.attempt);
    f("backoff_cost", e.backoff_cost);
    f("gave_up", e.gave_up);
  }
};

/// A per-arc circuit breaker changed state. "open": the arc's retrieval
/// failed persistently and will be skipped (with
/// its pessimistic cost charged) until `cooldown_until`; "half_open":
/// the cooldown elapsed and a single probe attempt is admitted;
/// "closed": a probe (or ordinary physical attempt) succeeded and
/// normal execution resumed. A failed probe re-opens with capped
/// exponential backoff.
struct BreakerEvent {
  int64_t t_us = 0;
  int64_t query_index = 0;
  uint32_t arc = 0;
  int experiment = -1;
  std::string state;  // "open" | "half_open" | "closed"
  int64_t consecutive_failures = 0;
  int64_t cooldown_until = 0;  // resilient-query index when it re-arms

  static constexpr const char* kType = "breaker";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("query_index", e.query_index);
    f("arc", e.arc);
    f("experiment", e.experiment);
    f("state", e.state);
    f("consecutive_failures", e.consecutive_failures);
    f("cooldown_until", e.cooldown_until);
  }
};

/// The drift detector changed state for one arc's series.
/// "detected": the windowed statistic moved past the detector's
/// threshold relative to its reference; "cleared": a later window
/// passed the same test again.
struct DriftEvent {
  int64_t t_us = 0;
  std::string detector;  // "p_hat"
  std::string state;     // "detected" | "cleared"
  int64_t arc = -1;
  double statistic = 0.0;  // the windowed value that was tested
  double reference = 0.0;  // the reference it was tested against
  double threshold = 0.0;  // breach margin the test required
  int64_t window = 0;      // index of the window that fired the test
  int64_t window_start_us = 0;
  int64_t window_end_us = 0;

  static constexpr const char* kType = "drift";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("detector", e.detector);
    f("state", e.state);
    f("arc", e.arc);
    f("statistic", e.statistic);
    f("reference", e.reference);
    f("threshold", e.threshold);
    f("window", e.window);
    f("window_start_us", e.window_start_us);
    f("window_end_us", e.window_end_us);
  }
};

/// An alert rule crossed its firing/resolved transition. Emitted only
/// on transitions (not every breached window), so the event stream is a
/// transcript of state changes.
struct AlertEvent {
  int64_t t_us = 0;
  std::string rule;      // rule id from the alerts config
  std::string state;     // "firing" | "resolved"
  std::string severity;  // "warning" | "critical"
  std::string metric;    // the rule's metric selector
  double value = 0.0;    // selector value in the transition window
  double threshold = 0.0;
  int64_t window = 0;       // index of the transition window
  int64_t for_windows = 0;  // consecutive breaches required to fire

  static constexpr const char* kType = "alert";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("rule", e.rule);
    f("state", e.state);
    f("severity", e.severity);
    f("metric", e.metric);
    f("value", e.value);
    f("threshold", e.threshold);
    f("window", e.window);
    f("for_windows", e.for_windows);
  }
};

/// The recovery controller decided (and, in a live run, executed) one
/// rule of a "stratlearn-recovery v1" policy in response to drift/alert
/// transitions in a closed window. `matched` counts the trigger
/// transitions that justified the action (>= 1), and the
/// statistic/reference/threshold triple echoes the first matching
/// transition so humans can see what moved. `outcome` reports what the
/// executor actually did ("applied", or "skipped_unsupported" without a
/// learner to act on); decide-only replays reconstruct decisions, not
/// outcomes.
struct RecoveryEvent {
  int64_t t_us = 0;
  std::string rule;     // policy rule id
  std::string trigger;  // e.g. "drift:p_hat" | "alert:<rule-id>"
  std::string action;   // "rebaseline", the one action
  std::string outcome;  // "applied" | "skipped_unsupported"
  int64_t arc = -1;     // always -1: no action targets one arc
  int64_t window = 0;   // index of the window whose transitions fired it
  int64_t matched = 0;  // trigger transitions matched in that window
  double statistic = 0.0;
  double reference = 0.0;
  double threshold = 0.0;

  static constexpr const char* kType = "recovery";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("rule", e.rule);
    f("trigger", e.trigger);
    f("action", e.action);
    f("outcome", e.outcome);
    f("arc", e.arc);
    f("window", e.window);
    f("matched", e.matched);
    f("statistic", e.statistic);
    f("reference", e.reference);
    f("threshold", e.threshold);
  }
};

/// PALO certified an epsilon-local optimum and stopped.
struct PaloStopEvent {
  int64_t t_us = 0;
  int64_t at_context = 0;
  int64_t moves = 0;
  double epsilon = 0.0;
  /// max over neighbours of (mean over-estimate + Hoeffding deviation);
  /// the stop fired because this dropped below epsilon.
  double worst_certificate = 0.0;

  static constexpr const char* kType = "palo_stop";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("at_context", e.at_context);
    f("moves", e.moves);
    f("epsilon", e.epsilon);
    f("worst_certificate", e.worst_certificate);
  }
};

/// A machine-checkable PAC certificate for one statistically
/// significant learner decision: the exact numbers that justified it,
/// the delta_i drawn from the learner's running delta-budget ledger,
/// and the Theorem 1-3 sample bound the decision is measured against.
/// tools/audit_verify re-derives every field from the raw ArcAttempt
/// stream and the src/stats formulas; emission is gated behind
/// Observer::audit_enabled() so runs without --audit-out stay
/// byte-identical to before this event existed.
struct DecisionCertificateEvent {
  int64_t t_us = 0;
  std::string learner;   // "pib" | "pib1" | "palo" | "pao"
  std::string decision;  // "climb" | "stop" | "quota"
  std::string verdict;   // "commit" | "reject" | "stop" | "met"
  int64_t at_context = 0;
  int64_t samples = 0;      // n: observations backing the test
  int64_t trials = 0;       // i: sequential-test index (1 for one-shot)
  int64_t subject = -1;     // neighbour index / experiment id; -1: n/a
  double mean = 0.0;        // Delta~ mean for climbers, p-hat for PAO
  double delta_sum = 0.0;   // the tested statistic (sum form)
  double threshold = 0.0;   // the threshold it was tested against
  double margin = 0.0;      // delta_sum - threshold
  double range = 0.0;       // d_i: the statistic's range
  double epsilon_n = 0.0;   // Hoeffding deviation eps(n, delta_step)
  double delta_step = 0.0;  // delta_i consumed by this decision
  double delta_budget = 0.0;       // the configured lifetime delta
  double delta_spent_total = 0.0;  // ledger after this decision
  /// Theorem 1-3 sample bound m(d_i) for this decision's parameters
  /// (0 when no closed-form bound applies).
  int64_t bound_samples = 0;
  double epsilon = 0.0;  // PALO/PAO epsilon; 0 for PIB/PIB1

  static constexpr const char* kType = "decision_certificate";
  template <typename Self, typename F>
  static void Fields(Self& e, F&& f) {
    f("t_us", e.t_us);
    f("learner", e.learner);
    f("decision", e.decision);
    f("verdict", e.verdict);
    f("at_context", e.at_context);
    f("samples", e.samples);
    f("trials", e.trials);
    f("subject", e.subject);
    f("mean", e.mean);
    f("delta_sum", e.delta_sum);
    f("threshold", e.threshold);
    f("margin", e.margin);
    f("range", e.range);
    f("epsilon_n", e.epsilon_n);
    f("delta_step", e.delta_step);
    f("delta_budget", e.delta_budget);
    f("delta_spent_total", e.delta_spent_total);
    f("bound_samples", e.bound_samples);
    f("epsilon", e.epsilon);
  }
};

/// Every event a TraceSink receives.
using Event =
    std::variant<QueryStartEvent, QueryEndEvent, ArcAttemptEvent,
                 ClimbMoveEvent, SequentialTestEvent, QuotaProgressEvent,
                 RetryEvent, BreakerEvent, DriftEvent, AlertEvent,
                 RecoveryEvent, PaloStopEvent, DecisionCertificateEvent>;

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_EVENTS_H_
