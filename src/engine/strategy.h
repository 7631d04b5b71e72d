#ifndef STRATLEARN_ENGINE_STRATEGY_H_
#define STRATLEARN_ENGINE_STRATEGY_H_

#include <string>
#include <vector>

#include "graph/inference_graph.h"
#include "util/status.h"

namespace stratlearn {

/// One rule an arc sequence or a strategy text breaks. Strategy's
/// readers and verify's V-S001..V-S003 pass report the same findings.
struct StrategyFinding {
  enum class Rule {
    kNoHeader,       // text without the "stratlearn-strategy v1" header
    kBadToken,       // a token that is not an arc id
    kUnknownArc,     // an id that names no arc of the graph
    kRepeatedArc,    // an arc listed twice
    kMissingArc,     // an arc not listed
    kTailUnreached,  // an arc before any arc that reaches its tail
  };
  Rule rule = Rule::kNoHeader;
  /// Index into the arc sequence (kUnknownArc, kRepeatedArc,
  /// kTailUnreached).
  size_t position = 0;
  ArcId arc = 0;
  std::string token;  // kBadToken

  std::string Message(const InferenceGraph& graph) const;
};

/// A query-processing strategy: the complete sequence of the graph's arcs
/// in the order the processor will consider them (Section 2.1). The
/// processor skips arcs whose tail it has not reached, and stops at the
/// first success (satisficing), so later entries may never execute.
class Strategy {
 public:
  Strategy() = default;

  /// Validates `arcs` against `graph`: the sequence must contain every
  /// arc exactly once, and each arc's tail must be the root or the head
  /// of an earlier arc (checked once the first rule holds). On failure
  /// the status names the first broken rule and `findings`, when given,
  /// receives every one.
  static Result<Strategy> FromArcOrder(
      const InferenceGraph& graph, std::vector<ArcId> arcs,
      std::vector<StrategyFinding>* findings = nullptr);

  /// Canonical "lazy" strategy realising a given visiting order of the
  /// success (leaf) arcs: for each leaf in order, the unvisited arcs of
  /// its root path are appended just in time. Every optimal strategy of
  /// an AOT graph has this form (prefix arcs are never paid early).
  static Strategy FromLeafOrder(const InferenceGraph& graph,
                                const std::vector<ArcId>& leaf_arcs);

  /// The default strategy: depth-first, left-to-right in rule order
  /// (Equation 4's Theta_ABCD for Figure 2).
  static Strategy DepthFirst(const InferenceGraph& graph);

  const std::vector<ArcId>& arcs() const { return arcs_; }
  size_t size() const { return arcs_.size(); }

  /// The order in which this strategy first visits the success arcs.
  std::vector<ArcId> LeafOrder(const InferenceGraph& graph) const;

  /// Note 3's path decomposition: maximal runs of arcs where each arc
  /// descends from the head of the previous one.
  std::vector<std::vector<ArcId>> Paths(const InferenceGraph& graph) const;

  /// Re-canonicalises to the lazy strategy with the same leaf order.
  Strategy Canonicalized(const InferenceGraph& graph) const;

  /// "<R_p D_p R_g D_g>" using arc labels.
  std::string ToString(const InferenceGraph& graph) const;

  /// One-line text form ("stratlearn-strategy v1 <arc ids>") for
  /// persisting a learned strategy alongside its serialised graph.
  std::string Serialize() const;

  /// Parses Serialize() output and validates it against `graph`: the
  /// header, then whitespace-separated arc ids on any number of lines,
  /// each read whole by util/string_util's strict integer parser.
  /// Findings as for FromArcOrder, which runs only when every token is
  /// an arc id.
  static Result<Strategy> Deserialize(
      const InferenceGraph& graph, std::string_view text,
      std::vector<StrategyFinding>* findings = nullptr);

  friend bool operator==(const Strategy& a, const Strategy& b) {
    return a.arcs_ == b.arcs_;
  }
  friend bool operator!=(const Strategy& a, const Strategy& b) {
    return !(a == b);
  }

 private:
  explicit Strategy(std::vector<ArcId> arcs) : arcs_(std::move(arcs)) {}

  std::vector<ArcId> arcs_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_ENGINE_STRATEGY_H_
