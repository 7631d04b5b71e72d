#ifndef STRATLEARN_ROBUST_FAULT_INJECTOR_H_
#define STRATLEARN_ROBUST_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "graph/inference_graph.h"
#include "robust/fault_plan.h"
#include "util/rng.h"
#include "util/status.h"

namespace stratlearn::robust {

/// Checkpointable state of a FaultInjector: the fault stream's RNG, the
/// resilient-query counter and every arc's circuit-breaker ledger. Saved
/// into learner checkpoints so a resumed run replays the exact same
/// fault sequence (kill-and-resume equivalence).
struct FaultInjectorState {
  std::array<uint64_t, 4> rng_state{};
  int64_t query_count = 0;
  struct BreakerEntry {
    ArcId arc = kInvalidArc;
    int consecutive_failures = 0;
    int64_t open_until = 0;  // first resilient-query index allowed a probe
    int open_rounds = 0;     // failed half-open probes (backoff exponent)
  };
  std::vector<BreakerEntry> breakers;  // sorted by arc
};

/// What the executor should do with an arc under its circuit breaker.
enum class BreakerDecision {
  kClosed,         // attempt normally
  kOpen,           // skip, charge the pessimistic cost
  kHalfOpenProbe,  // cooldown elapsed: this attempt is the single probe
};

/// Deterministic fault source plus resilient-execution bookkeeping,
/// threaded into QueryProcessor behind a nullable pointer (mirroring the
/// Observer* pattern: a null injector costs one predicted branch and the
/// hot loop is untouched).
///
/// The injector owns its own RNG (seeded from the plan), so the fault
/// stream is independent of the workload stream: the same contexts are
/// drawn with and without faults, which is what lets tests compare
/// faulted runs against clean ones.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  const ResilienceOptions& resilience() const { return plan_.resilience; }

  /// Starts one resilient query; returns its 0-based ordinal (the clock
  /// the circuit breakers run on).
  int64_t BeginQuery() { return query_count_++; }

  /// Samples the fault outcome of one physical attempt of `experiment`.
  /// First matching rule (in plan order) that fires wins; `*magnitude`
  /// receives its cost multiplier. Consumes no randomness when no rule
  /// with positive probability targets the experiment — a zero-fault
  /// plan therefore leaves every stream untouched.
  FaultKind SampleFault(int experiment, double* magnitude);

  /// Breaker state machine step for one attempt of `arc` at resilient
  /// query `query`. Open breakers skip the retrieval (pessimistic cost
  /// charged). Once `open_until` passes the breaker turns half-open and
  /// admits exactly one probe attempt: this call returns
  /// kHalfOpenProbe and later attempts return kOpen until the probe
  /// resolves through RecordRecovery (closes) or RecordInfraFailure
  /// (re-opens with capped exponential backoff).
  BreakerDecision CheckBreaker(ArcId arc, int64_t query);

  /// Convenience for tests: CheckBreaker != kClosed would admit a probe,
  /// so this reports only the hard-open state without consuming it.
  bool BreakerOpen(ArcId arc, int64_t query) const;

  /// Records an exhausted-retries failure of `arc` at resilient query
  /// `query`. Returns true when this transition *opened* (or re-opened
  /// after a failed probe) the breaker (caller emits the "open" trace
  /// event). A failed half-open probe doubles the cooldown each round,
  /// capped at 8x the base cooldown.
  bool RecordInfraFailure(ArcId arc, int64_t query);

  /// Records a fault-free physical attempt of `arc`. Returns true when
  /// this *closed* a previously opened breaker ("closed" trace event).
  bool RecordRecovery(ArcId arc);

  /// Breaker ledger of `arc` (consecutive failures, open-until), for
  /// events and tests.
  FaultInjectorState::BreakerEntry BreakerLedger(ArcId arc) const;

  FaultInjectorState SaveState() const;
  Status RestoreState(const FaultInjectorState& state);

 private:
  struct Breaker {
    int consecutive_failures = 0;
    int64_t open_until = 0;
    int open_rounds = 0;
    bool probe_inflight = false;
  };

  /// Whether the entry is in the open/half-open regime at all.
  bool Armed(const Breaker& breaker) const {
    return plan_.resilience.breaker_threshold > 0 &&
           breaker.consecutive_failures >= plan_.resilience.breaker_threshold;
  }

  int64_t BackoffCooldown(int open_rounds) const;

  FaultPlan plan_;
  Rng rng_;
  int64_t query_count_ = 0;
  /// std::map keeps the serialization order deterministic.
  std::map<ArcId, Breaker> breakers_;
};

}  // namespace stratlearn::robust

#endif  // STRATLEARN_ROBUST_FAULT_INJECTOR_H_
