#ifndef STRATLEARN_GRAPH_INFERENCE_GRAPH_H_
#define STRATLEARN_GRAPH_INFERENCE_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace stratlearn {

using NodeId = uint32_t;
using ArcId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;
inline constexpr ArcId kInvalidArc = 0xffffffffu;

/// The kind of an arc in an inference graph (Section 2.1): a rule
/// reduction (goal to subgoal) or a database retrieval.
enum class ArcKind : uint8_t { kReduction, kRetrieval };

/// One arc of the graph. An arc is an *experiment* when it can be blocked
/// in some contexts: every retrieval is an experiment; a reduction is one
/// only when it is guarded (e.g. "grad(fred) :- admitted(fred, X)" can be
/// followed only for the query constant fred — Section 4.1).
struct Arc {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  ArcKind kind = ArcKind::kReduction;
  double cost = 1.0;
  /// Outcome-dependent cost extension (Note 4 / [OG90]): extra cost paid
  /// when the traversal succeeds resp. is blocked, on top of `cost`.
  /// Deterministic arcs always "succeed". Both default to 0 (the paper's
  /// basic model).
  double success_cost = 0.0;
  double failure_cost = 0.0;
  std::string label;
  /// Index into the graph's experiment list, or -1 for deterministic
  /// (never blocked) arcs. Maintained by InferenceGraph.
  int experiment = -1;

  /// Largest possible cost of one attempt of this arc.
  double MaxCost() const {
    double extra = success_cost > failure_cost ? success_cost : failure_cost;
    return cost + extra;
  }

  /// Expected cost of one attempt when the arc succeeds w.p. `p`.
  double ExpectedAttemptCost(double p) const {
    return cost + p * success_cost + (1.0 - p) * failure_cost;
  }
};

/// One node: an atomic literal (goal/subgoal) or a success box.
struct Node {
  std::string label;
  bool is_success = false;
  /// Incoming arc (tree shape: at most one), kInvalidArc for the root.
  ArcId incoming = kInvalidArc;
  /// Outgoing arcs in strategy-default (rule/insertion) order.
  std::vector<ArcId> out_arcs;
};

/// An inference graph G = <N, A, S, f> (Section 2.1). This class
/// maintains the AOT (tree-shaped) invariant: every added arc must
/// descend from an existing node to a brand-new node, so the structure is
/// a tree rooted at node 0 by construction. (The paper's general
/// directed-graph case is NP-hard to optimise [Gre91]; see DESIGN.md.)
///
/// Success nodes S are the boxed nodes of Figure 1: reaching one means
/// the derivation has succeeded.
class InferenceGraph {
 public:
  InferenceGraph() = default;

  /// Creates the root node (must be called exactly once, first).
  NodeId AddRoot(std::string label);

  /// Adds a node under `parent` connected by a new arc, and returns both
  /// ids. Deterministic arc unless `is_experiment`.
  struct AddResult {
    NodeId node;
    ArcId arc;
  };
  AddResult AddChild(NodeId parent, std::string node_label, ArcKind kind,
                     double cost, std::string arc_label,
                     bool is_experiment = false, bool is_success = false);

  /// Convenience: adds a retrieval arc (always an experiment) leading to
  /// a success box.
  AddResult AddRetrieval(NodeId parent, double cost, std::string arc_label);

  /// Sets the Note 4 / [OG90] outcome-dependent extra costs of an arc
  /// (both must be >= 0).
  void SetOutcomeCosts(ArcId id, double on_success, double on_failure);

  // ---- Inspection ------------------------------------------------------

  NodeId root() const { return 0; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_arcs() const { return arcs_.size(); }
  const Node& node(NodeId id) const {
    STRATLEARN_CHECK(id < nodes_.size());
    return nodes_[id];
  }
  const Arc& arc(ArcId id) const {
    STRATLEARN_CHECK(id < arcs_.size());
    return arcs_[id];
  }

  /// All arcs that are experiments, in experiment-index order.
  const std::vector<ArcId>& experiments() const { return experiments_; }
  size_t num_experiments() const { return experiments_.size(); }

  /// Experiment index for `arc`, or -1 when the arc is deterministic.
  int ExperimentIndex(ArcId id) const { return arc(id).experiment; }

  /// All retrieval arcs, in arc order.
  std::vector<ArcId> RetrievalArcs() const;

  /// Arcs whose head is a success node ("leaf" arcs of the search).
  std::vector<ArcId> SuccessArcs() const;

  // ---- Cost functions (Note 5) ----------------------------------------
  // With outcome-dependent costs these use each arc's MaxCost, keeping
  // f*, F_not and the Lambda ranges derived from them valid upper
  // bounds; with the paper's basic model they reduce to plain f sums.

  /// f*(a): cost of `a` plus every arc below it.
  double FStar(ArcId id) const;

  /// f* for every arc, indexed by ArcId; O(|A|).
  std::vector<double> AllFStar() const;

  /// F_not[a]: total cost of the arcs outside a's own root path and
  /// subtree — for a leaf arc, exactly "the arcs on the other paths".
  double FNeg(ArcId id) const;

  /// Total cost of all arcs.
  double TotalCost() const;

  /// Pi(a) of Definition 1: the arcs from the root down to, but not
  /// including, `a`.
  std::vector<ArcId> Pi(ArcId id) const;

  /// Every arc in the subtree rooted at `a` (including `a`), preorder.
  std::vector<ArcId> SubtreeArcs(ArcId id) const;

  /// Depth of the arc (root arcs have depth 0).
  int ArcDepth(ArcId id) const;

  // ---- Validation & export ---------------------------------------------

  /// Structural checks: a single root exists, success nodes are leaves,
  /// every non-root node has exactly one incoming arc, costs positive.
  Status Validate() const;

  /// Graphviz DOT rendering for debugging and documentation.
  std::string ToDot(const std::string& graph_name = "G") const;

 private:
  std::vector<Node> nodes_;
  std::vector<Arc> arcs_;
  std::vector<ArcId> experiments_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_GRAPH_INFERENCE_GRAPH_H_
