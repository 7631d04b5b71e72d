#include "engine/query_processor.h"

#include <algorithm>
#include <cmath>

#include "robust/fault_injector.h"
#include "util/check.h"

namespace stratlearn {

void QueryProcessor::set_observer(obs::Observer* observer) {
  observer_ = observer;
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.queries = &r->GetCounter("qp.queries");
  handles_.arc_attempts = &r->GetCounter("qp.arc_attempts");
  handles_.arcs_unblocked = &r->GetCounter("qp.arcs_unblocked");
  handles_.successes = &r->GetCounter("qp.successes");
  handles_.query_cost = &r->GetHistogram("qp.query_cost");
  handles_.query_wall_us = &r->GetHistogram("qp.query_wall_us");
  handles_.faults = &r->GetCounter("robust.faults");
  handles_.retries = &r->GetCounter("robust.retries");
  handles_.gave_up = &r->GetCounter("robust.gave_up");
  handles_.breaker_opens = &r->GetCounter("robust.breaker_opens");
  handles_.breaker_skips = &r->GetCounter("robust.breaker_skips");
}

void QueryProcessor::set_fault_injector(robust::FaultInjector* injector) {
  injector_ = injector;
}

Trace QueryProcessor::ExecuteObserved(const Strategy& strategy,
                                      const Context& context,
                                      const ExecutionOptions& options) const {
  int64_t query_index =
      queries_executed_.fetch_add(1, std::memory_order_relaxed);
  int64_t t0 = observer_->NowUs();
  obs::TraceSink* sink = observer_->sink();
  if (sink != nullptr) sink->On(obs::QueryStartEvent{query_index, t0});

  Trace trace = Walk(strategy, context, options, sink, query_index);
  int64_t t1 = observer_->NowUs();

  if (handles_.queries != nullptr) {
    handles_.queries->Increment();
    handles_.arc_attempts->Increment(
        static_cast<int64_t>(trace.attempts.size()));
    int64_t unblocked = 0;
    for (const ArcAttempt& a : trace.attempts) {
      if (a.unblocked) ++unblocked;
    }
    handles_.arcs_unblocked->Increment(unblocked);
    handles_.successes->Increment(trace.successes);
    handles_.query_cost->Record(trace.cost);
    handles_.query_wall_us->Record(static_cast<double>(t1 - t0));
  }
  if (sink != nullptr) {
    for (const ArcAttempt& a : trace.attempts) {
      const Arc& arc = graph_->arc(a.arc);
      sink->On(obs::ArcAttemptEvent{query_index, t1, a.arc, arc.experiment,
                                    a.unblocked, a.cost});
    }
    sink->On(obs::QueryEndEvent{query_index, t0, t1 - t0, trace.cost,
                                static_cast<int64_t>(trace.attempts.size()),
                                trace.successes, trace.success});
  }
  return trace;
}

Trace QueryProcessor::Walk(const Strategy& strategy, const Context& context,
                           const ExecutionOptions& options,
                           obs::TraceSink* sink, int64_t query_index) const {
  STRATLEARN_CHECK(context.num_experiments() == graph_->num_experiments());
  Trace trace;
  // At most one attempt per arc: one allocation instead of regrowth.
  trace.attempts.reserve(strategy.size());
  std::vector<char> reached;
  // The context's outcome at the arc's nominal cost.
  auto nominal = [&](ArcId a, const Arc& arc) {
    bool unblocked = arc.experiment < 0 ||
                     context.Unblocked(static_cast<size_t>(arc.experiment));
    double cost = arc.cost + (unblocked ? arc.success_cost : arc.failure_cost);
    trace.attempts.push_back({a, unblocked, false, cost});
    return WalkStep{unblocked, cost};
  };
  WalkResult walk;
  if (injector_ == nullptr) {
    walk = SatisficingWalk(*graph_, strategy.arcs(),
                           options.stop_after_successes, &reached, nominal);
  } else {
    // The breaker clock is the injector's own query counter, independent
    // of the observer's ordinal, so checkpointed resumption replays
    // cooldowns exactly even when the observed ordinal restarts.
    const int64_t rq = injector_->BeginQuery();
    walk = SatisficingWalk(
        *graph_, strategy.arcs(), options.stop_after_successes, &reached,
        [&](ArcId a, const Arc& arc) {
          // Deterministic arcs model local computation, not retrievals;
          // the fault model leaves them alone.
          if (arc.experiment < 0) return nominal(a, arc);
          const ArcAttempt at =
              AttemptWithFaults(a, arc, context, rq, sink, query_index);
          trace.attempts.push_back(at);
          return WalkStep{at.unblocked, at.cost};
        });
  }
  trace.cost = walk.cost;
  trace.successes = walk.successes;
  trace.success = walk.successes >= options.stop_after_successes;
  trace.first_success_arc = walk.first_success_arc;
  return trace;
}

ArcAttempt QueryProcessor::AttemptWithFaults(ArcId a, const Arc& arc,
                                             const Context& context,
                                             int64_t rq, obs::TraceSink* sink,
                                             int64_t query_index) const {
  const robust::ResilienceOptions& res = injector_->resilience();
  robust::BreakerDecision breaker = injector_->CheckBreaker(a, rq);
  if (breaker == robust::BreakerDecision::kOpen) {
    // Persistently failing retrieval: skip it outright, record it as
    // blocked at the arc's pessimistic cost while the breaker shields the
    // run from the failing backend.
    if (handles_.breaker_skips != nullptr) {
      handles_.breaker_skips->Increment();
    }
    return {a, false, true, arc.cost + arc.failure_cost};
  }
  if (breaker == robust::BreakerDecision::kHalfOpenProbe && sink != nullptr) {
    // The cooldown elapsed and this attempt is the single probe; its
    // outcome below either closes the breaker or re-opens it with
    // backed-off cooldown.
    robust::FaultInjectorState::BreakerEntry ledger =
        injector_->BreakerLedger(a);
    sink->On(obs::BreakerEvent{observer_->NowUs(), query_index, a,
                               arc.experiment, "half_open",
                               ledger.consecutive_failures,
                               ledger.open_until});
  }

  bool true_unblocked = context.Unblocked(static_cast<size_t>(arc.experiment));
  double attempt_cost = 0.0;
  int tries = 0;
  for (;;) {
    double magnitude = 1.0;
    robust::FaultKind fault =
        injector_->SampleFault(arc.experiment, &magnitude);
    if (fault == robust::FaultKind::kNone ||
        fault == robust::FaultKind::kCostSpike) {
      // The attempt completed with a trustworthy result (a cost spike
      // only inflates the base cost, it does not corrupt the answer).
      double base = fault == robust::FaultKind::kCostSpike
                        ? arc.cost * magnitude
                        : arc.cost;
      attempt_cost +=
          base + (true_unblocked ? arc.success_cost : arc.failure_cost);
      if (fault == robust::FaultKind::kCostSpike &&
          handles_.faults != nullptr) {
        handles_.faults->Increment();
      }
      if (injector_->RecordRecovery(a) && sink != nullptr) {
        robust::FaultInjectorState::BreakerEntry ledger =
            injector_->BreakerLedger(a);
        sink->On(obs::BreakerEvent{observer_->NowUs(), query_index, a,
                                   arc.experiment, "closed",
                                   ledger.consecutive_failures,
                                   ledger.open_until});
      }
      return {a, true_unblocked, false, attempt_cost};
    }
    // kTransient / kCorrupt / kTimeout: the attempt yields nothing a
    // learner may trust. Its cost is still paid.
    attempt_cost += fault == robust::FaultKind::kTimeout
                        ? arc.cost * magnitude
                        : arc.cost;
    if (handles_.faults != nullptr) handles_.faults->Increment();
    if (tries < res.max_retries) {
      double backoff =
          std::min(res.backoff_base * std::pow(res.backoff_multiplier,
                                               static_cast<double>(tries)),
                   res.backoff_cap);
      attempt_cost += backoff;
      if (handles_.retries != nullptr) handles_.retries->Increment();
      if (sink != nullptr) {
        sink->On(obs::RetryEvent{observer_->NowUs(), query_index, a,
                                 arc.experiment, robust::FaultKindName(fault),
                                 tries + 1, backoff, false});
      }
      ++tries;
      continue;
    }
    // Retries exhausted: record the retrieval as blocked at its
    // pessimistic outcome cost and feed the circuit breaker.
    attempt_cost += arc.failure_cost;
    if (handles_.gave_up != nullptr) handles_.gave_up->Increment();
    if (sink != nullptr) {
      sink->On(obs::RetryEvent{observer_->NowUs(), query_index, a,
                               arc.experiment, robust::FaultKindName(fault),
                               tries, 0.0, true});
    }
    if (injector_->RecordInfraFailure(a, rq)) {
      if (handles_.breaker_opens != nullptr) {
        handles_.breaker_opens->Increment();
      }
      if (sink != nullptr) {
        robust::FaultInjectorState::BreakerEntry ledger =
            injector_->BreakerLedger(a);
        sink->On(obs::BreakerEvent{observer_->NowUs(), query_index, a,
                                   arc.experiment, "open",
                                   ledger.consecutive_failures,
                                   ledger.open_until});
      }
    }
    return {a, false, true, attempt_cost};
  }
}

double QueryProcessor::Cost(const Strategy& strategy,
                            const Context& context) const {
  return Execute(strategy, context).cost;
}

}  // namespace stratlearn
