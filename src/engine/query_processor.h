#ifndef STRATLEARN_ENGINE_QUERY_PROCESSOR_H_
#define STRATLEARN_ENGINE_QUERY_PROCESSOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/context.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"
#include "obs/observer.h"

namespace stratlearn {

namespace robust {
class FaultInjector;
}  // namespace robust

/// One attempted arc traversal and its outcome.
struct ArcAttempt {
  ArcId arc = kInvalidArc;
  bool unblocked = false;
  /// True when the *observed* outcome is an infrastructure artifact, not
  /// a semantic sample: the retrieval's retries were exhausted or its
  /// circuit breaker was open, and the attempt was recorded as blocked
  /// with the arc's pessimistic cost. QP^A must not count such attempts
  /// against its Equation 7/8 quotas (they carry no information about
  /// the experiment's true outcome). Delta~ keeps them and is computed
  /// from the fault-inflated `Trace::cost`, so under an active fault
  /// plan Delta~ <= Delta is not guaranteed (ROADMAP 1(a)); a zero-fault
  /// plan leaves every trace bit-identical to a plain run.
  bool infra_failure = false;
  /// Full cost actually paid for this attempt (base + outcome extra +
  /// any fault surcharges and retry backoff). Lets observers attribute
  /// per-arc cost without re-deriving it from the arc table, which would
  /// be wrong under injected faults.
  double cost = 0.0;
};

/// The record of one query execution: what the learners observe
/// (Section 5.1: everything PIB/PAO need can be read off this trace).
struct Trace {
  std::vector<ArcAttempt> attempts;
  double cost = 0.0;
  /// Number of success nodes reached (0 or 1 for satisficing search).
  int64_t successes = 0;
  /// True when the required number of answers was found.
  bool success = false;
  /// The arc whose traversal reached the first success node.
  ArcId first_success_arc = kInvalidArc;
  /// Always true: every walk runs to its stop rule. Kept only because
  /// the learnbench driver reads it; it goes with the next change to
  /// that benchmark.
  bool resolved = true;
};

struct ExecutionOptions {
  /// Stop after this many success nodes have been reached. 1 is the
  /// paper's satisficing search; Section 5.2's first-k-answers variant
  /// uses k > 1.
  int64_t stop_after_successes = 1;
};

/// One attempt of an arc as the walk sees it: whether it was traversed
/// and what it cost.
struct WalkStep {
  bool unblocked = false;
  double cost = 0.0;
};

/// What one satisficing walk found.
struct WalkResult {
  double cost = 0.0;
  int64_t successes = 0;
  /// The arc whose traversal reached the first success node.
  ArcId first_success_arc = kInvalidArc;
};

/// The satisficing traversal of Section 2.1, written once: arcs are
/// considered in `arcs` order; an arc whose tail node has not been
/// reached is skipped at no cost; every other arc is attempted through
/// `attempt(a, arc)`, which returns a WalkStep and is paid for; a
/// blocked arc does not make its head reachable; reaching a success node
/// counts an answer, and the walk stops after `stop_after` of them.
/// `reached` is the caller's buffer for the reached nodes, reset here.
///
/// The attempt is the only variable part: the query processor asks the
/// context (or the fault injector), the Delta~/Delta^ replay reads a
/// completion. A caller that keeps a trace records it in `attempt`.
template <typename Attempt>
WalkResult SatisficingWalk(const InferenceGraph& graph,
                           const std::vector<ArcId>& arcs,
                           int64_t stop_after, std::vector<char>* reached,
                           Attempt&& attempt) {
  reached->assign(graph.num_nodes(), 0);
  (*reached)[graph.root()] = 1;
  WalkResult walk;
  for (ArcId a : arcs) {
    const Arc& arc = graph.arc(a);
    if (!(*reached)[arc.from]) continue;  // unreachable: skipped at no cost
    const WalkStep step = attempt(a, arc);
    walk.cost += step.cost;
    if (!step.unblocked) continue;
    (*reached)[arc.to] = 1;
    if (graph.node(arc.to).is_success) {
      ++walk.successes;
      if (walk.first_success_arc == kInvalidArc) walk.first_success_arc = a;
      if (walk.successes >= stop_after) break;
    }
  }
  return walk;
}

/// Executes strategies over contexts: QP = <G, Theta> applied to I, by
/// SatisficingWalk. An attempt reads the context's outcome at the arc's
/// nominal cost f(arc) plus its outcome extra, unless a fault injector is
/// attached and the arc is an experiment.
class QueryProcessor {
 public:
  explicit QueryProcessor(const InferenceGraph* graph,
                          obs::Observer* observer = nullptr)
      : graph_(graph) {
    set_observer(observer);
  }

  /// Attaches (or detaches, with nullptr) an observer. When attached,
  /// Execute records qp.* metrics and emits QueryStart/ArcAttempt/
  /// QueryEnd events; when absent the hot loop is untouched.
  void set_observer(obs::Observer* observer);
  obs::Observer* observer() const { return observer_; }

  /// Attaches (or detaches) a fault injector. When attached, seeded
  /// faults are injected into every experiment-arc attempt, failed
  /// attempts are retried with capped exponential backoff, and
  /// persistently failing arcs are skipped by a circuit breaker at their
  /// pessimistic cost. Null (the default) keeps the paper's fault-free
  /// walk, which makes no per-arc injector test.
  void set_fault_injector(robust::FaultInjector* injector);
  robust::FaultInjector* fault_injector() const { return injector_; }

  /// Inline dispatch keeps the unobserved path at the same call depth
  /// as an uninstrumented processor: one predicted branch, then the
  /// walk.
  Trace Execute(const Strategy& strategy, const Context& context,
                const ExecutionOptions& options = {}) const {
    if (observer_ != nullptr) [[unlikely]] {
      return ExecuteObserved(strategy, context, options);
    }
    return Walk(strategy, context, options, nullptr, 0);
  }

  /// Convenience: the cost c(Theta, I) alone.
  double Cost(const Strategy& strategy, const Context& context) const;

  const InferenceGraph& graph() const { return *graph_; }

 private:
  Trace ExecuteObserved(const Strategy& strategy, const Context& context,
                        const ExecutionOptions& options) const;
  /// The walk of `strategy` over `context`. `sink`/`query_index` carry
  /// the observed event stream when called from ExecuteObserved (null/0
  /// otherwise); only the fault-injected attempts emit to it.
  Trace Walk(const Strategy& strategy, const Context& context,
             const ExecutionOptions& options, obs::TraceSink* sink,
             int64_t query_index) const;
  /// One attempt of experiment arc `a` through the fault injector at
  /// resilient query `rq`: the breaker check, the retry and backoff loop
  /// and the give-up.
  ArcAttempt AttemptWithFaults(ArcId a, const Arc& arc, const Context& context,
                               int64_t rq, obs::TraceSink* sink,
                               int64_t query_index) const;

  const InferenceGraph* graph_;
  obs::Observer* observer_ = nullptr;
  robust::FaultInjector* injector_ = nullptr;
  /// Metric handles resolved once in set_observer (null when no
  /// registry) so the observed path does no name lookups per query.
  struct Handles {
    obs::Counter* queries = nullptr;
    obs::Counter* arc_attempts = nullptr;
    obs::Counter* arcs_unblocked = nullptr;
    obs::Counter* successes = nullptr;
    obs::Histogram* query_cost = nullptr;
    obs::Histogram* query_wall_us = nullptr;
    // robust.* counters; only touched by fault-injected walks.
    obs::Counter* faults = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* gave_up = nullptr;
    obs::Counter* breaker_opens = nullptr;
    obs::Counter* breaker_skips = nullptr;
  };
  Handles handles_;
  /// Query ordinal for span events (Execute stays const for callers).
  /// Atomic so concurrent Execute calls on one processor draw distinct
  /// ordinals; relaxed is enough — nothing orders on this value.
  mutable std::atomic<int64_t> queries_executed_{0};
};

}  // namespace stratlearn

#endif  // STRATLEARN_ENGINE_QUERY_PROCESSOR_H_
