#ifndef STRATLEARN_CORE_DELTA_ESTIMATOR_H_
#define STRATLEARN_CORE_DELTA_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "core/transformations.h"
#include "engine/context.h"
#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"

namespace stratlearn {

/// One completion K of a trace: the experiments the trace observed keep
/// their outcomes and every unobserved one is filled in. Stores each
/// arc's outcome and attempt cost under K (indexed by ArcId), so any
/// number of strategies can be evaluated against one trace's completion
/// without re-deriving it. A plain value: build it once per trace.
struct Completion {
  std::vector<char> unblocked;
  std::vector<double> cost;
};

/// T(Theta): the sibling-swap neighbours of one strategy, planned for the
/// incremental estimator. Build it once per strategy (when a learner
/// starts or moves). It owns Theta and keeps a pointer to the graph,
/// which must outlive it (as it must outlive the learner holding it).
///
/// The plan rests on the region identity (DESIGN.md §5). When Theta is
/// lazy (`== Canonicalized()`) and hierarchically contiguous (every
/// subtree's leaves are consecutive), a swap under parent P exchanges two
/// of P's child blocks, and Theta' = ApplySwap(Theta, swap) shares
/// Theta's arc sequence before and after the *region*: P's child blocks
/// from the first swapped one to the last. Whether the region succeeds
/// does not depend on block order, so for every completion K
///    c(Theta', K) = c(Theta, K) - [entered] * (R_Theta - R_Theta'),
/// where [entered] means P is reached and Theta found no success before
/// the region, and R sums the block costs in each order up to and
/// including the first block that succeeds. Each neighbour stores its
/// region's blocks in both orders and the region's start position.
///
/// Any other Theta (e.g. DepthFirst over a graph with dead-end subtrees,
/// or an interleaved leaf order) plans no regions; the estimator then
/// replays each neighbour under the per-trace completion instead.
class SwapNeighborhood {
 public:
  struct Neighbor {
    SiblingSwap swap;
    Strategy strategy;   // Theta' = ApplySwap(Theta, swap)
    double range = 0.0;  // Lambda[Theta, Theta'] (strategy-aware SwapRange)
  };

  /// Keeps the swaps of `swaps` that change Theta, in their given order;
  /// a swap moving a subtree without success leaves is a no-op and is
  /// dropped.
  SwapNeighborhood(const InferenceGraph& graph, Strategy theta,
                   const std::vector<SiblingSwap>& swaps);

  const Strategy& strategy() const { return theta_; }
  const std::vector<Neighbor>& neighbors() const { return neighbors_; }
  size_t size() const { return neighbors_.size(); }
  /// True when the region identity holds for Theta, so every neighbour's
  /// estimate costs O(region) per completion instead of a replay.
  bool incremental() const { return incremental_; }

  /// c(Theta'_j, K) for every neighbour j, into `out` (resized to
  /// size()). Incremental: one run of Theta under `k`, a bottom-up table
  /// of every block's (cost, succeeds) in O(A), then O(region) per
  /// neighbour. Otherwise one replay per neighbour.
  void Costs(const Completion& k, std::vector<double>* out) const;

 private:
  /// A swap's region: P, the position in Theta of the region's first
  /// arc, and its child arcs ("blocks") in Theta's and in Theta''s order,
  /// as [begin, begin + count) ranges of `blocks_`.
  struct Region {
    NodeId parent = kInvalidNode;
    uint32_t start = 0;
    uint32_t theta_begin = 0;
    uint32_t alt_begin = 0;
    uint32_t count = 0;
  };

  const InferenceGraph* graph_;
  Strategy theta_;
  std::vector<Neighbor> neighbors_;
  bool incremental_ = false;
  /// Length of Theta's leading run of arcs that lie on a success path
  /// (a lazy strategy appends the dead-end arcs after it).
  uint32_t success_prefix_ = 0;
  std::vector<Region> regions_;  // parallel to neighbors_ when incremental
  std::vector<ArcId> blocks_;
};

/// Estimates Delta[Theta, Theta', I] = c(Theta, I) - c(Theta', I)
/// (Section 3.1) — the per-context cost saving of switching to an
/// alternative strategy.
///
/// The exact value needs the full context; the learners only have the
/// *trace* of the current strategy's run, which reveals the outcomes of
/// the attempted experiments only. From a trace the estimator produces:
///
///  * Delta~ (the paper's under-estimate, `UnderEstimate[s]`): completes
///    the unobserved part pessimistically for Theta' — unobserved
///    success-bearing arcs are assumed blocked (no early success for
///    Theta') and unobserved internal experiments assumed traversable
///    (Theta' pays their subtrees). Both choices over-estimate
///    c(Theta', I), so Delta~ <= Delta always. This is what PIB feeds
///    into Equation 6.
///
///  * Delta^ (`OverEstimate[s]`): the symmetric optimistic completion
///    used by PALO's stopping rule — a lower bound on c(Theta', I)
///    obtained by minimising over the single-success-path completions,
///    giving Delta^ >= Delta.
///
/// With outcome-dependent arc costs (Note 4 / [OG90]) the completions
/// additionally charge unobserved experiments their maximum (resp.
/// minimum) attempt cost, keeping both bounds sound; this reduces to the
/// plain execution cost in the paper's fixed-cost model.
///
/// The learners use the neighbourhood forms `UnderEstimates` and
/// `OverEstimates`, which build the trace's completions once and then
/// apply the region identity (see SwapNeighborhood): per context that is
/// O(A + E + |trace|) plus O(region) per neighbour for Delta~, and
/// O(S * A) plus O(region) per neighbour and completion for Delta^ (S
/// success arcs). The single-neighbour forms replay Theta' under the
/// completion, as the neighbourhood forms do for a strategy without a
/// region plan; they are the reference the incremental path is tested
/// against.
///
/// Floating point: the identity regroups the replay's left-to-right sum.
/// With integer arc costs (every Datalog-built graph) every partial sum
/// is exact and both paths agree bit for bit, whatever the trace's own
/// (possibly fault-inflated) cost; with fractional costs they agree to a
/// few ulps.
class DeltaEstimator {
 public:
  explicit DeltaEstimator(const InferenceGraph* graph)
      : graph_(graph), processor_(graph) {}

  /// Exact Delta given the full context.
  double ExactDelta(const Strategy& strategy, const Strategy& alternative,
                    const Context& context) const;

  /// J: Delta~'s pessimistic completion of `trace`.
  Completion Pessimistic(const Trace& trace) const;

  /// Delta^'s optimistic completions of `trace`: every unobserved
  /// experiment blocked, then one completion per success arc whose root
  /// path (and itself) the trace did not see blocked, with that path
  /// unblocked. At most S + 1 of them.
  std::vector<Completion> Optimistic(const Trace& trace) const;

  /// c(Theta, K): `strategy`'s satisficing run under completion `k`.
  double Cost(const Strategy& strategy, const Completion& k) const;

  /// Delta~ <= Delta for one alternative, by replay under J.
  double UnderEstimate(const Trace& trace,
                       const Strategy& alternative) const;

  /// Delta^ >= Delta for one alternative, by replay under each
  /// optimistic completion.
  double OverEstimate(const Trace& trace, const Strategy& alternative) const;

  /// Delta~ for every neighbour of `hood`, from one trace of
  /// hood.strategy(); resizes `out` to hood.size().
  void UnderEstimates(const Trace& trace, const SwapNeighborhood& hood,
                      std::vector<double>* out) const;

  /// Delta^ for every neighbour of `hood`; resizes `out` to hood.size().
  void OverEstimates(const Trace& trace, const SwapNeighborhood& hood,
                     std::vector<double>* out) const;

 private:
  const InferenceGraph* graph_;
  QueryProcessor processor_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_DELTA_ESTIMATOR_H_
