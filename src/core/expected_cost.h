#ifndef STRATLEARN_CORE_EXPECTED_COST_H_
#define STRATLEARN_CORE_EXPECTED_COST_H_

#include <utility>
#include <vector>

#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/oracle.h"

namespace stratlearn {

/// Expected cost C[Theta] (Section 2.1) of a strategy when experiment i
/// succeeds independently with probability `probs[i]`.
///
/// Exact via the tree decomposition: for each arc a,
///   Pr[a attempted] = Pr[Pi(a) unblocked]
///                   * Pr[no earlier success | Pi(a) unblocked],
/// where the conditional no-success probability of the already-ordered
/// leaves factorises over sibling subtrees (experiments independent).
/// O(|A|^2) worst case.
double ExactExpectedCost(const InferenceGraph& graph, const Strategy& strategy,
                         const std::vector<double>& probs);

/// O(|A|) fast path for *simple disjunctive* graphs — every experiment is
/// a success (leaf) arc (Smith's class; paper Note 4). Aborts if the
/// graph has internal experiments; callers should check
/// `IsLeafOnlyExperiments` first.
double LeafOnlyExpectedCost(const InferenceGraph& graph,
                            const Strategy& strategy,
                            const std::vector<double>& probs);

/// True when every experiment arc ends in a success node.
bool IsLeafOnlyExperiments(const InferenceGraph& graph);

/// Expected cost by exhaustive enumeration of all 2^n contexts; exact for
/// any dependence-free distribution but exponential — test oracle only
/// (n <= 20 enforced). `options` selects the search, e.g. Section 5.2's
/// first-k-answers with `stop_after_successes = k`.
double EnumeratedExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy,
                              const std::vector<double>& probs,
                              const ExecutionOptions& options = {});

/// Monte-Carlo estimate of C[Theta] over an arbitrary context oracle
/// (the only option when experiments are dependent), under `options`.
double MonteCarloExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy, ContextOracle& oracle,
                              int64_t samples, Rng& rng,
                              const ExecutionOptions& options = {});

/// Exhaustively searches all leaf orderings (lazy strategies) for the
/// minimum expected cost. Exponential: requires at most
/// `max_leaves` (default 8) success arcs. Returns the optimal strategy
/// and its cost.
struct OptimalResult {
  Strategy strategy;
  double cost = 0.0;
};
Result<OptimalResult> BruteForceOptimal(const InferenceGraph& graph,
                                        const std::vector<double>& probs,
                                        size_t max_leaves = 8);

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_EXPECTED_COST_H_
