#include "engine/strategy.h"

#include "util/string_util.h"

namespace stratlearn {

namespace {

using Rule = StrategyFinding::Rule;

/// Every rule `arcs` breaks as a strategy of `graph`, in one pass that
/// allocates only its two flag arrays when it finds nothing.
std::vector<StrategyFinding> CheckArcOrder(const InferenceGraph& graph,
                                           const std::vector<ArcId>& arcs) {
  std::vector<StrategyFinding> findings;
  // Tail before head: the processor can only consider an arc once its
  // tail node has been reached. Reported only for a permutation.
  std::vector<StrategyFinding> tail_first;
  std::vector<char> seen(graph.num_arcs(), 0);
  std::vector<char> reached(graph.num_nodes(), 0);
  reached[graph.root()] = 1;
  for (size_t i = 0; i < arcs.size(); ++i) {
    ArcId a = arcs[i];
    if (a >= graph.num_arcs()) {
      findings.push_back({Rule::kUnknownArc, i, a, {}});
    } else if (seen[a]) {
      findings.push_back({Rule::kRepeatedArc, i, a, {}});
    } else {
      seen[a] = 1;
      const Arc& arc = graph.arc(a);
      if (!reached[arc.from]) {
        tail_first.push_back({Rule::kTailUnreached, i, a, {}});
      }
      reached[arc.to] = 1;
    }
  }
  // The entries not refused above name distinct arcs.
  if (arcs.size() - findings.size() < graph.num_arcs()) {
    for (ArcId a = 0; a < graph.num_arcs(); ++a) {
      if (!seen[a]) findings.push_back({Rule::kMissingArc, 0, a, {}});
    }
  }
  return findings.empty() ? std::move(tail_first) : std::move(findings);
}

/// The first of `found` as a status, all of them into `*findings`.
Status Refuse(const InferenceGraph& graph,
              std::vector<StrategyFinding> found,
              std::vector<StrategyFinding>* findings) {
  Status status = Status::InvalidArgument(found.front().Message(graph));
  if (findings != nullptr) *findings = std::move(found);
  return status;
}

}  // namespace

std::string StrategyFinding::Message(const InferenceGraph& graph) const {
  constexpr const char* kPermutation =
      "a strategy is a permutation of the graph's arcs";
  switch (rule) {
    case Rule::kNoHeader:
      return "missing 'stratlearn-strategy v1' header";
    case Rule::kBadToken:
      return StrFormat("token '%s' is not an arc id", token.c_str());
    case Rule::kUnknownArc:
      return StrFormat("arc id %u does not exist; the graph has %zu arcs",
                       arc, graph.num_arcs());
    case Rule::kRepeatedArc:
      return StrFormat("arc id %u appears more than once; %s", arc,
                       kPermutation);
    case Rule::kMissingArc:
      return StrFormat("arc %u ('%s') is missing from the strategy; %s", arc,
                       graph.arc(arc).label.c_str(), kPermutation);
    case Rule::kTailUnreached:
      return StrFormat("arc %u ('%s') appears before any arc reaching its "
                       "tail node %u",
                       arc, graph.arc(arc).label.c_str(),
                       graph.arc(arc).from);
  }
  return "";
}

Result<Strategy> Strategy::FromArcOrder(
    const InferenceGraph& graph, std::vector<ArcId> arcs,
    std::vector<StrategyFinding>* findings) {
  std::vector<StrategyFinding> found = CheckArcOrder(graph, arcs);
  if (!found.empty()) return Refuse(graph, std::move(found), findings);
  return Strategy(std::move(arcs));
}

Strategy Strategy::FromLeafOrder(const InferenceGraph& graph,
                                 const std::vector<ArcId>& leaf_arcs) {
  std::vector<ArcId> arcs;
  arcs.reserve(graph.num_arcs());
  std::vector<char> included(graph.num_arcs(), 0);
  for (ArcId leaf : leaf_arcs) {
    for (ArcId a : graph.Pi(leaf)) {
      if (!included[a]) {
        included[a] = 1;
        arcs.push_back(a);
      }
    }
    if (!included[leaf]) {
      included[leaf] = 1;
      arcs.push_back(leaf);
    }
  }
  // Any arcs not on a success path (dead ends) are appended last so the
  // strategy still covers the whole graph.
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    if (!included[a]) {
      for (ArcId p : graph.Pi(a)) {
        if (!included[p]) {
          included[p] = 1;
          arcs.push_back(p);
        }
      }
      included[a] = 1;
      arcs.push_back(a);
    }
  }
  return Strategy(std::move(arcs));
}

Strategy Strategy::DepthFirst(const InferenceGraph& graph) {
  std::vector<ArcId> arcs;
  arcs.reserve(graph.num_arcs());
  // Preorder DFS from the root, children in rule order.
  std::vector<ArcId> stack;
  const Node& root = graph.node(graph.root());
  for (auto it = root.out_arcs.rbegin(); it != root.out_arcs.rend(); ++it) {
    stack.push_back(*it);
  }
  while (!stack.empty()) {
    ArcId a = stack.back();
    stack.pop_back();
    arcs.push_back(a);
    const Node& head = graph.node(graph.arc(a).to);
    for (auto it = head.out_arcs.rbegin(); it != head.out_arcs.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return Strategy(std::move(arcs));
}

std::vector<ArcId> Strategy::LeafOrder(const InferenceGraph& graph) const {
  std::vector<ArcId> leaves;
  for (ArcId a : arcs_) {
    if (graph.node(graph.arc(a).to).is_success) leaves.push_back(a);
  }
  return leaves;
}

std::vector<std::vector<ArcId>> Strategy::Paths(
    const InferenceGraph& graph) const {
  std::vector<std::vector<ArcId>> paths;
  for (size_t i = 0; i < arcs_.size(); ++i) {
    bool continues = false;
    if (i > 0) {
      continues = graph.arc(arcs_[i]).from == graph.arc(arcs_[i - 1]).to;
    }
    if (!continues) paths.emplace_back();
    paths.back().push_back(arcs_[i]);
  }
  return paths;
}

Strategy Strategy::Canonicalized(const InferenceGraph& graph) const {
  return FromLeafOrder(graph, LeafOrder(graph));
}

std::string Strategy::Serialize() const {
  std::string out = "stratlearn-strategy v1";
  for (ArcId a : arcs_) out += StrFormat(" %u", a);
  return out;
}

Result<Strategy> Strategy::Deserialize(
    const InferenceGraph& graph, std::string_view text,
    std::vector<StrategyFinding>* findings) {
  std::vector<std::string> tokens = SplitFields(text);
  if (tokens.size() < 2 || tokens[0] != "stratlearn-strategy" ||
      tokens[1] != "v1") {
    return Refuse(graph, {{Rule::kNoHeader, 0, 0, {}}}, findings);
  }
  std::vector<ArcId> arcs;
  std::vector<StrategyFinding> found;
  for (size_t i = 2; i < tokens.size(); ++i) {
    ArcId id = 0;
    if (ParseInteger(tokens[i], &id)) {
      arcs.push_back(id);
    } else {
      found.push_back({Rule::kBadToken, 0, 0, tokens[i]});
    }
  }
  if (!found.empty()) return Refuse(graph, std::move(found), findings);
  return FromArcOrder(graph, std::move(arcs), findings);
}

std::string Strategy::ToString(const InferenceGraph& graph) const {
  std::vector<std::string> labels;
  labels.reserve(arcs_.size());
  for (ArcId a : arcs_) labels.push_back(graph.arc(a).label);
  return "<" + Join(labels, " ") + ">";
}

}  // namespace stratlearn
