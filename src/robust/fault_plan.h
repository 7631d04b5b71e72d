#ifndef STRATLEARN_ROBUST_FAULT_PLAN_H_
#define STRATLEARN_ROBUST_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace stratlearn::robust {

/// The ways one physical retrieval attempt can misbehave. The paper's
/// model assumes every attempt of an experiment arc returns the true
/// blocked/unblocked outcome at the arc's fixed cost; a production
/// backend (ROADMAP north star) violates each of those assumptions in a
/// distinct way, so the harness injects each one separately.
enum class FaultKind : uint8_t {
  kNone = 0,
  /// The retrieval fails outright; nothing is learned about the
  /// experiment's true outcome. Retryable.
  kTransient,
  /// Like kTransient, but the attempt also costs `magnitude` times the
  /// arc's base cost before failing (a hung backend hitting a deadline).
  kTimeout,
  /// The attempt *appears* to complete but its result cannot be trusted
  /// (checksum/validation failure on the result set). Treated like a
  /// failed attempt — an untrusted sample must not feed the learners.
  kCorrupt,
  /// The retrieval completes correctly but costs `magnitude` times the
  /// arc's base cost (an overloaded backend). Never retried: the answer
  /// is valid, only expensive.
  kCostSpike,
};

/// "transient" | "timeout" | "corrupt" | "cost_spike" | "none".
const char* FaultKindName(FaultKind kind);

/// One seeded fault rule: with `probability`, a physical attempt of
/// `experiment` (or of every experiment when -1) suffers `kind`.
struct FaultRule {
  FaultKind kind = FaultKind::kNone;
  double probability = 0.0;
  int experiment = -1;
  /// Cost multiplier for kTimeout / kCostSpike (>= 1).
  double magnitude = 1.0;
};

/// Knobs of the resilient execution policy (all per FaultInjector, so a
/// fault plan file carries both what goes wrong and how the executor is
/// allowed to respond).
struct ResilienceOptions {
  /// Failed physical attempts are retried up to this many times.
  int max_retries = 3;
  /// Retry k (1-based) charges min(base * multiplier^(k-1), cap) extra
  /// cost to the query — capped exponential backoff, in cost units.
  double backoff_base = 0.25;
  double backoff_multiplier = 2.0;
  double backoff_cap = 2.0;
  /// A retrieval arc whose retries are exhausted this many times in a
  /// row has its circuit breaker opened: the arc is skipped (pessimistic
  /// cost charged) for `breaker_cooldown` resilient queries, then given
  /// one half-open probe attempt. A failed probe re-opens the breaker
  /// with its cooldown doubled each round, capped at 8x
  /// `breaker_cooldown`. 0 disables the breaker.
  int breaker_threshold = 0;
  int64_t breaker_cooldown = 32;
};

/// A deterministic, seeded fault-injection plan: the rules plus the
/// resilience policy, loadable from a "stratlearn-faultplan v1" file.
///
/// File format (one directive per line, '#' comments):
///   stratlearn-faultplan v1
///   seed 42
///   retries 3
///   backoff 0.25 2.0 2.0        # base multiplier cap
///   breaker 8 32                # threshold cooldown; threshold 0 = off
///   fault transient 0.05 -1     # kind probability experiment [magnitude]
///   fault timeout 0.01 2 4.0
struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultRule> rules;
  ResilienceOptions resilience;

  static Result<FaultPlan> Parse(std::string_view text);
  static Result<FaultPlan> Load(const std::string& path);
  std::string Serialize() const;

  /// True when no rule can ever fire — the resilient executor then
  /// produces bit-identical traces to the plain one.
  bool ZeroFault() const;
};

}  // namespace stratlearn::robust

#endif  // STRATLEARN_ROBUST_FAULT_PLAN_H_
