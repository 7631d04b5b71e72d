#include "andor/and_or_serialization.h"

#include <vector>

#include "util/string_util.h"

namespace stratlearn {

namespace {

constexpr std::string_view kGraphHeader = "stratlearn-andor v1";
constexpr std::string_view kStrategyHeader = "stratlearn-andor-strategy v1";

char KindChar(AndOrKind kind) {
  switch (kind) {
    case AndOrKind::kAnd:
      return 'A';
    case AndOrKind::kOr:
      return 'O';
    case AndOrKind::kLeaf:
      return 'L';
  }
  return '?';
}

}  // namespace

std::string SerializeAndOrGraph(const AndOrGraph& graph) {
  std::string out(kGraphHeader);
  out += "\n";
  for (AndOrNodeId n = 0; n < graph.num_nodes(); ++n) {
    const AndOrNode& node = graph.node(n);
    std::string parent = node.parent == kInvalidAndOrNode
                             ? "-"
                             : StrFormat("%u", node.parent);
    out += StrFormat("node %c %s %.17g %s\n", KindChar(node.kind),
                     parent.c_str(), node.cost, node.label.c_str());
  }
  return out;
}

std::string SerializeAndOrStrategy(const AndOrGraph& graph,
                                   const AndOrStrategy& strategy) {
  std::string out(kStrategyHeader);
  for (AndOrNodeId n = 0; n < graph.num_nodes(); ++n) {
    const std::vector<AndOrNodeId>& order = strategy.OrderAt(n);
    if (order.size() < 2) continue;
    out += StrFormat(" %u:", n);
    for (size_t i = 0; i < order.size(); ++i) {
      out += StrFormat(i == 0 ? "%u" : ",%u", order[i]);
    }
  }
  return out;
}

Result<AndOrStrategy> DeserializeAndOrStrategy(const AndOrGraph& graph,
                                               std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (!StartsWith(trimmed, kStrategyHeader)) {
    return Status::InvalidArgument(
        "missing 'stratlearn-andor-strategy v1' header");
  }
  AndOrStrategy strategy = AndOrStrategy::Default(graph);
  std::vector<std::string> tokens =
      Split(trimmed.substr(kStrategyHeader.size()), ' ');
  for (const std::string& token : tokens) {
    if (Trim(token).empty()) continue;
    std::vector<std::string> parts = Split(token, ':');
    uint32_t node = 0;
    if (parts.size() != 2 || !ParseInteger(parts[0], &node) ||
        node >= graph.num_nodes()) {
      return Status::InvalidArgument("bad strategy token '" + token + "'");
    }
    std::vector<std::string> ids = Split(parts[1], ',');
    if (ids.size() != graph.node(node).children.size()) {
      return Status::InvalidArgument(
          StrFormat("node %u order has wrong length", node));
    }
    // Apply the order via selection swaps so validity is preserved.
    for (size_t i = 0; i < ids.size(); ++i) {
      uint32_t child = 0;
      if (!ParseInteger(ids[i], &child)) {
        return Status::InvalidArgument("bad child id '" + ids[i] + "'");
      }
      const std::vector<AndOrNodeId>& now = strategy.OrderAt(node);
      size_t j = i;
      while (j < now.size() && now[j] != child) ++j;
      if (j >= now.size()) {
        return Status::InvalidArgument(StrFormat(
            "node %u order is not a permutation of its children", node));
      }
      if (j != i) strategy = strategy.WithSwappedChildren(node, i, j);
    }
  }
  STRATLEARN_RETURN_IF_ERROR(strategy.Validate(graph));
  return strategy;
}

}  // namespace stratlearn
