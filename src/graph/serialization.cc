#include "graph/serialization.h"

#include <vector>

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

Result<InferenceGraph> DeserializeGraph(std::string_view text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != kHeader) {
    return Status::InvalidArgument(
        "missing 'stratlearn-graph v1' header line");
  }

  // First pass: collect node and arc records.
  struct NodeRecord {
    bool is_success;
    std::string label;
  };
  struct ArcRecord {
    NodeId from, to;
    ArcKind kind;
    double cost, success_cost, failure_cost;
    bool is_experiment;
    std::string label;
  };
  std::vector<NodeRecord> nodes;
  std::vector<ArcRecord> arcs;

  std::vector<std::string_view> tokens;
  std::string_view rest;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (Trim(line).empty()) continue;
    if (StartsWith(line, "node ")) {
      if (!TakeTokens(line.substr(5), 1, &tokens, &rest)) {
        return Status::InvalidArgument(
            StrFormat("malformed node record on line %zu", i + 1));
      }
      NodeRecord record;
      record.is_success = tokens[0] == "1";
      record.label = std::string(rest);
      nodes.push_back(std::move(record));
    } else if (StartsWith(line, "arc ")) {
      if (!TakeTokens(line.substr(4), 7, &tokens, &rest)) {
        return Status::InvalidArgument(
            StrFormat("malformed arc record on line %zu", i + 1));
      }
      ArcRecord record;
      if (!ParseInteger(tokens[0], &record.from) ||
          !ParseInteger(tokens[1], &record.to) ||
          !ParseDouble(tokens[3], &record.cost) ||
          !ParseDouble(tokens[4], &record.success_cost) ||
          !ParseDouble(tokens[5], &record.failure_cost)) {
        return Status::InvalidArgument(
            StrFormat("bad numeric field in arc record on line %zu", i + 1));
      }
      if (tokens[2] == "D") {
        record.kind = ArcKind::kRetrieval;
      } else if (tokens[2] == "R") {
        record.kind = ArcKind::kReduction;
      } else {
        return Status::InvalidArgument(
            StrFormat("unknown arc kind on line %zu", i + 1));
      }
      record.is_experiment = tokens[6] == "1";
      record.label = std::string(rest);
      arcs.push_back(std::move(record));
    } else {
      return Status::InvalidArgument(
          StrFormat("unrecognised record on line %zu", i + 1));
    }
  }
  if (nodes.empty()) {
    return Status::InvalidArgument("graph has no nodes");
  }

  // Rebuild. AddChild assigns node id = arc id + 1 in insertion order,
  // so the arc records must reference nodes consistently with that; the
  // serialiser guarantees it for any graph built through the public API.
  InferenceGraph graph;
  graph.AddRoot(nodes[0].label);
  for (size_t a = 0; a < arcs.size(); ++a) {
    const ArcRecord& record = arcs[a];
    NodeId expected_node = static_cast<NodeId>(a + 1);
    if (record.to != expected_node || record.to >= nodes.size() ||
        record.from >= record.to) {
      return Status::InvalidArgument(StrFormat(
          "arc %zu does not describe a tree built in insertion order", a));
    }
    if (record.cost <= 0.0 || record.success_cost < 0.0 ||
        record.failure_cost < 0.0) {
      return Status::InvalidArgument(
          StrFormat("arc %zu has invalid costs", a));
    }
    if (nodes[record.from].is_success) {
      return Status::InvalidArgument(
          StrFormat("arc %zu descends from a success node", a));
    }
    const NodeRecord& head = nodes[record.to];
    auto added = graph.AddChild(record.from, head.label, record.kind,
                                record.cost, record.label,
                                record.is_experiment, head.is_success);
    if (record.success_cost != 0.0 || record.failure_cost != 0.0) {
      graph.SetOutcomeCosts(added.arc, record.success_cost,
                            record.failure_cost);
    }
  }
  if (graph.num_nodes() != nodes.size()) {
    return Status::InvalidArgument("node count does not match arc count");
  }
  STRATLEARN_RETURN_IF_ERROR(graph.Validate());
  return graph;
}

}  // namespace stratlearn
