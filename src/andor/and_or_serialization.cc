#include "andor/and_or_serialization.h"

#include <string_view>

#include "util/string_util.h"

namespace stratlearn {

namespace {

constexpr std::string_view kGraphHeader = "stratlearn-andor v1";

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

}  // namespace stratlearn
