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
/// region's blocks in both orders and the region's start position; the
/// neighbours are grouped by P, each group in start order, so a run
/// visits only the groups of the parents it reached. Theta itself is
/// held as flat per-position arrays (the arc above, whether the head is
/// a success node) that the run and the block table read.
///
/// Any other Theta (e.g. DepthFirst over a graph with dead-end subtrees,
/// or an interleaved leaf order) plans no regions; each neighbour is then
/// replayed under the completion instead.
class SwapNeighborhood {
 public:
  struct Neighbor {
    SiblingSwap swap;
    Strategy strategy;   // Theta' = ApplySwap(Theta, swap)
    double range = 0.0;  // Lambda[Theta, Theta'] (strategy-aware SwapRange)
  };

  /// Working memory of one evaluation, passed in by the caller so that a
  /// reused Scratch (DeltaEstimator keeps one) makes no heap allocation
  /// once Reserve has sized it for the graph.
  struct Scratch {
    /// One block: an arc plus the part of its subtree Theta runs with it.
    struct Block {
      double cost = 0.0;
      bool succeeds = false;
    };
    std::vector<char> reached;      // replay: the nodes a run reached
    std::vector<char> ok;           // per position: attempted, unblocked
    std::vector<Block> blocks;      // per success-path position
    std::vector<uint32_t> entered;  // groups whose parent the run reached

    void Reserve(const InferenceGraph& graph);
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
  void Costs(const Completion& k, Scratch* scratch,
             std::vector<double>* out) const;

  /// (*sums)[j] += cost - c(Theta'_j, K) for every neighbour j (`sums`
  /// holds size() values), bit for bit as if from Costs. Incremental,
  /// with cost == c(Theta, K): only the neighbours whose region the run
  /// of Theta entered are visited; every other one would add exactly
  /// +0.0. Otherwise every neighbour is visited.
  void AddCostDifferences(const Completion& k, double cost, Scratch* scratch,
                          std::vector<double>* sums) const;

 private:
  /// A swap's region: the position in Theta of the arc into P (size()
  /// of Theta for the root), the position of the region's first arc,
  /// and the positions of its child arcs ("blocks") in Theta's and in
  /// Theta''s order, as [begin, begin + count) ranges of `blocks_`.
  struct Region {
    uint32_t parent_pos = 0;
    uint32_t start = 0;
    uint32_t theta_begin = 0;
    uint32_t alt_begin = 0;
    uint32_t count = 0;
  };
  static constexpr uint32_t kNoGroup = 0xffffffffu;

  /// The run of Theta under `k`: returns c(Theta, K), sets `*stop` to
  /// the position of the arc that reached a success (size() of Theta
  /// when none did), marks scratch->ok, lists the entered groups and
  /// tabulates every success-path block.
  double RunTheta(const Completion& k, Scratch* scratch, size_t* stop) const;
  /// c(Theta'_j, K) after RunTheta, or by replay when not incremental.
  double NeighborCost(size_t j, const Completion& k, double theta_cost,
                      size_t stop, Scratch* scratch) const;
  /// R_Theta - R_Theta' for neighbour j's region, from RunTheta's blocks.
  double RegionSaving(size_t j, const Scratch& scratch) const;

  const InferenceGraph* graph_;
  Strategy theta_;
  std::vector<Neighbor> neighbors_;
  bool incremental_ = false;
  /// Length of Theta's leading run of arcs that lie on a success path
  /// (a lazy strategy appends the dead-end arcs after it).
  uint32_t success_prefix_ = 0;
  // Theta per position (incremental only): the position of the arc
  // above (size() of Theta for a root arc) and whether the head is a
  // success node.
  std::vector<uint32_t> above_;
  std::vector<char> success_;
  std::vector<Region> regions_;  // parallel to neighbors_ when incremental
  std::vector<uint32_t> blocks_;
  // Neighbours grouped by region parent: group g is
  // order_[group_begin_[g], group_begin_[g + 1]), in start order, and
  // group_at_[i] is the group whose parent the arc at position i enters
  // (index size() of Theta: the root's group), else kNoGroup.
  std::vector<uint32_t> order_;
  std::vector<uint32_t> group_begin_;
  std::vector<uint32_t> group_at_;
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
/// The learners use the neighbourhood forms `AddUnderEstimates` and
/// `OverEstimates`, which apply the region identity (see
/// SwapNeighborhood). Delta~ starts from J0, the pessimistic completion
/// with nothing observed, built once: every experiment is one arc, so a
/// trace's J differs from J0 only at the experiment arcs it attempted,
/// which are written before the run and restored after it. Per context
/// that is O(|trace|) for J, one run of Theta and one block table, and
/// O(region) per neighbour whose region the run entered; the others add
/// trace.cost - c(Theta, J), which is +0.0 unless faults inflated the
/// trace or it ran past its first success, and is then added to each of
/// them. Delta^ costs O(S * A) plus O(region) per neighbour and
/// completion (S success arcs). The single-neighbour forms replay Theta'
/// under a completion built from scratch, as the neighbourhood forms do
/// for a strategy without a region plan; they are the reference the
/// incremental path is tested against.
///
/// Floating point: the identity regroups the replay's left-to-right sum.
/// With integer arc costs (every Datalog-built graph) every partial sum
/// is exact and both paths agree bit for bit, whatever the trace's own
/// (possibly fault-inflated) cost; with fractional costs they agree to a
/// few ulps.
class DeltaEstimator {
 public:
  explicit DeltaEstimator(const InferenceGraph* graph);

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

  /// Adds Delta~ for every neighbour of `hood`, from one trace of
  /// hood.strategy(), to (*sums)[j]; `sums` holds hood.size() values.
  /// Makes no heap allocation.
  void AddUnderEstimates(const Trace& trace, const SwapNeighborhood& hood,
                         std::vector<double>* sums);

  /// Delta^ for every neighbour of `hood`; resizes `out` to hood.size().
  void OverEstimates(const Trace& trace, const SwapNeighborhood& hood,
                     std::vector<double>* out);

 private:
  const InferenceGraph* graph_;
  QueryProcessor processor_;
  /// J0, and the completion AddUnderEstimates patches to a trace's J and
  /// restores to J0 afterwards.
  Completion base_;
  Completion patched_;
  SwapNeighborhood::Scratch scratch_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_DELTA_ESTIMATOR_H_
