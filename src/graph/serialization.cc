#include "graph/serialization.h"

#include "util/string_util.h"

namespace stratlearn {

namespace {

constexpr std::string_view kHeader = "stratlearn-graph v1";

}  // namespace

std::string SerializeGraph(const InferenceGraph& graph) {
  std::string out(kHeader);
  out += "\n";
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    const Node& node = graph.node(n);
    out += StrFormat("node %d %s\n", node.is_success ? 1 : 0,
                     node.label.c_str());
  }
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    out += StrFormat("arc %u %u %c %.17g %.17g %.17g %d %s\n", arc.from,
                     arc.to, arc.kind == ArcKind::kRetrieval ? 'D' : 'R',
                     arc.cost, arc.success_cost, arc.failure_cost,
                     arc.experiment >= 0 ? 1 : 0, arc.label.c_str());
  }
  return out;
}

}  // namespace stratlearn
