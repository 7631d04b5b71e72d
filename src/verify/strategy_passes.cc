#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/strategy.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

namespace {

/// PIB explores 𝒯(Θ): sibling-swap transformations, which permute the
/// child order at individual nodes. A leaf visiting order is reachable
/// that way iff every subtree's leaves are contiguous in it — a swap
/// never interleaves one subtree's leaves with another's.
void CheckSiblingSwapReachability(const InferenceGraph& graph,
                                  const Strategy& strategy,
                                  DiagnosticSink* sink) {
  std::vector<ArcId> leaf_order = strategy.LeafOrder(graph);
  std::unordered_map<ArcId, size_t> position;
  for (size_t i = 0; i < leaf_order.size(); ++i) position[leaf_order[i]] = i;
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    size_t min_pos = leaf_order.size();
    size_t max_pos = 0;
    size_t count = 0;
    for (ArcId sub : graph.SubtreeArcs(a)) {
      auto it = position.find(sub);
      if (it == position.end()) continue;  // not a success arc
      min_pos = it->second < min_pos ? it->second : min_pos;
      max_pos = it->second > max_pos ? it->second : max_pos;
      ++count;
    }
    if (count > 1 && max_pos - min_pos + 1 != count) {
      sink->Warning(
          "V-S004", StrFormat("arc %u", a),
          StrFormat("the strategy interleaves the leaves of subtree '%s' "
                    "with leaves outside it; no sequence of sibling "
                    "swaps reaches this order from the default strategy",
                    graph.arc(a).label.c_str()),
          "PIB's hill-climbing over the sibling-swap set T(Theta) can "
          "neither produce nor improve on this strategy");
      return;  // one finding is enough; deeper subtrees repeat the story
    }
  }
}

}  // namespace

std::optional<Strategy> VerifyStrategyText(const InferenceGraph& graph,
                                           std::string_view text,
                                           DiagnosticSink* sink) {
  using Rule = StrategyFinding::Rule;
  std::vector<StrategyFinding> findings;
  Result<Strategy> strategy = Strategy::Deserialize(graph, text, &findings);
  for (const StrategyFinding& finding : findings) {
    const char* code = "V-S001";
    std::string location = StrFormat("position %zu", finding.position);
    std::string hint;
    switch (finding.rule) {
      case Rule::kNoHeader:
        location = "line 1";
        break;
      case Rule::kBadToken:
        location = "";
        break;
      case Rule::kUnknownArc:
        break;
      case Rule::kRepeatedArc:
        code = "V-S002";
        break;
      case Rule::kMissingArc:
        code = "V-S002";
        location = "";
        break;
      case Rule::kTailUnreached:
        code = "V-S003";
        hint = "order every arc after the arc that leads to its tail";
        break;
    }
    sink->Error(code, location, finding.Message(graph), hint);
  }
  if (!strategy.ok()) return std::nullopt;
  CheckSiblingSwapReachability(graph, *strategy, sink);
  return *std::move(strategy);
}

}  // namespace stratlearn::verify
