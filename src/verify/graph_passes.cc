#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "andor/and_or_graph.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

namespace {

/// The node and arc records of a "stratlearn-graph v1" file as written,
/// before any tree rule holds.
struct GraphRecords {
  struct NodeRecord {
    bool success = false;
    std::string label;
  };
  struct ArcRecord {
    uint32_t from = 0;
    uint32_t to = 0;
    ArcKind kind = ArcKind::kReduction;
    double cost = 1.0;
    double success_cost = 0.0;
    double failure_cost = 0.0;
    bool is_experiment = false;
    std::string label;
    int line = 0;
  };
  std::vector<NodeRecord> nodes;
  std::vector<ArcRecord> arcs;
};

/// Tree shape, costs, success leaves, dead ends and depth.
void CheckGraphRecords(const GraphRecords& records, DiagnosticSink* sink,
                       const VerifyOptions& options) {
  size_t num_nodes = records.nodes.size();
  std::vector<int> incoming(num_nodes, 0);
  std::vector<std::vector<size_t>> out(num_nodes);
  for (size_t a = 0; a < records.arcs.size(); ++a) {
    const GraphRecords::ArcRecord& arc = records.arcs[a];
    std::string location = StrFormat("line %d", arc.line);
    bool endpoints_ok = true;
    if (arc.from >= num_nodes) {
      sink->Error("V-G002", location,
                  StrFormat("arc %zu starts at node %u, but only %zu nodes "
                            "are declared",
                            a, arc.from, num_nodes));
      endpoints_ok = false;
    }
    if (arc.to >= num_nodes) {
      sink->Error("V-G002", location,
                  StrFormat("arc %zu ends at node %u, but only %zu nodes "
                            "are declared",
                            a, arc.to, num_nodes));
      endpoints_ok = false;
    }
    if (arc.cost <= 0.0) {
      sink->Error("V-G003", location,
                  StrFormat("arc %zu has non-positive cost %s; every "
                            "Lambda range and f* bound assumes positive "
                            "arc costs",
                            a, FormatDouble(arc.cost).c_str()));
    }
    if (arc.success_cost < 0.0 || arc.failure_cost < 0.0) {
      sink->Error("V-G003", location,
                  StrFormat("arc %zu has a negative outcome cost", a));
    }
    if (!std::isfinite(arc.cost) || !std::isfinite(arc.success_cost) ||
        !std::isfinite(arc.failure_cost)) {
      sink->Error("V-G003", location,
                  StrFormat("arc %zu has a cost that is not a finite "
                            "number; no expected cost is defined over it",
                            a));
    }
    if (!endpoints_ok) continue;
    if (arc.from == arc.to) {
      sink->Error("V-G001", location,
                  StrFormat("arc %zu is a self-loop on node %u; the AOT "
                            "structure must be a tree",
                            a, arc.from),
                  "Upsilon_AOT's optimality proof requires a tree-shaped "
                  "graph");
      continue;
    }
    ++incoming[arc.to];
    out[arc.from].push_back(a);
    if (records.nodes[arc.from].success) {
      sink->Error("V-G004", location,
                  StrFormat("success node %u has an outgoing arc; success "
                            "boxes terminate derivations and must be "
                            "leaves",
                            arc.from));
    }
  }
  if (num_nodes == 0) return;
  if (incoming[0] > 0) {
    sink->Error("V-G001", "node 0",
                "the root has incoming arcs; the AOT structure must be a "
                "tree rooted at node 0",
                "Upsilon_AOT's optimality proof requires a tree-shaped "
                "graph");
  }
  for (size_t n = 1; n < num_nodes; ++n) {
    if (incoming[n] > 1) {
      sink->Error("V-G001", StrFormat("node %zu", n),
                  StrFormat("node %zu has %d incoming arcs; shared "
                            "subgoals make the graph a DAG, not a tree",
                            n, incoming[n]),
                  "Upsilon_AOT's optimality proof requires a tree-shaped "
                  "graph; duplicate the shared subtree or use the AND/OR "
                  "extension");
    }
  }
  // Reachability + depth from the root (ignoring structurally bad arcs).
  std::vector<int> depth(num_nodes, -1);
  std::vector<size_t> stack = {0};
  depth[0] = 0;
  while (!stack.empty()) {
    size_t n = stack.back();
    stack.pop_back();
    for (size_t a : out[n]) {
      uint32_t to = records.arcs[a].to;
      if (depth[to] >= 0) continue;  // already reached (DAG/cycle case)
      depth[to] = depth[n] + 1;
      stack.push_back(to);
      // Arc depth (root arcs at 0) is depth[to] - 1; warn once, at the
      // first arc past the bound.
      if (depth[to] == options.max_depth + 2) {
        sink->Warning("V-G006", StrFormat("line %d", records.arcs[a].line),
                      StrFormat("arc %zu is at depth %d, beyond the "
                                "unfolding bound %d; this usually means a "
                                "runaway recursive unfolding",
                                a, depth[to] - 1, options.max_depth));
      }
    }
  }
  for (size_t n = 1; n < num_nodes; ++n) {
    if (depth[n] < 0 && incoming[n] == 0) {
      sink->Error("V-G001", StrFormat("node %zu", n),
                  StrFormat("node %zu is unreachable from the root; no "
                            "strategy can ever visit it",
                            n),
                  "remove the node or connect it to the tree");
    }
  }
  for (size_t n = 0; n < num_nodes; ++n) {
    if (depth[n] >= 0 && out[n].empty() && !records.nodes[n].success) {
      sink->Warning("V-G005", StrFormat("node %zu", n),
                    StrFormat("node %zu heads a dead-end subtree: it is "
                              "not a success box and has no outgoing "
                              "arcs, so every path through it fails",
                              n),
                    "dead-end arcs add pure cost to every strategy that "
                    "tries them");
    }
  }
}

/// The rules InferenceGraph's construction relies on beyond the tree
/// rules: the order the graph was built in, retrievals that are
/// experiments, and a root that is not a success box.
void CheckBuildOrder(const GraphRecords& records, DiagnosticSink* sink) {
  if (records.nodes[0].success) {
    sink->Error("V-G008", "node 0",
                "the root is marked as a success node; the root is the "
                "query, not a success box");
  }
  for (size_t a = 0; a < records.arcs.size(); ++a) {
    const GraphRecords::ArcRecord& arc = records.arcs[a];
    std::string location = StrFormat("line %d", arc.line);
    if (arc.to != a + 1 || arc.from >= arc.to) {
      sink->Error("V-G008", location,
                  StrFormat("arc %zu leads from node %u to node %u; arc i "
                            "must lead from an earlier node to node i+1",
                            a, arc.from, arc.to),
                  "list the arcs in the order of the nodes they lead to");
    }
    if (arc.kind == ArcKind::kRetrieval && !arc.is_experiment) {
      sink->Error("V-G008", location,
                  StrFormat("arc %zu is a retrieval (D) but not an "
                            "experiment; every retrieval can be blocked",
                            a));
    }
  }
}

InferenceGraph BuildGraph(const GraphRecords& records) {
  InferenceGraph graph;
  graph.AddRoot(records.nodes[0].label);
  for (const GraphRecords::ArcRecord& arc : records.arcs) {
    const GraphRecords::NodeRecord& head = records.nodes[arc.to];
    ArcId id = graph
                   .AddChild(arc.from, head.label, arc.kind, arc.cost,
                             arc.label, arc.is_experiment, head.success)
                   .arc;
    if (arc.success_cost != 0.0 || arc.failure_cost != 0.0) {
      graph.SetOutcomeCosts(id, arc.success_cost, arc.failure_cost);
    }
  }
  return graph;
}

/// A loader's error for text its verify pass refused: the first error,
/// else the first finding (the AND/OR loader's V-A002 warning).
Status LoadError(const DiagnosticSink& sink) {
  const std::vector<Diagnostic>& all = sink.diagnostics();
  auto error = std::find_if(all.begin(), all.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
  return Status::InvalidArgument(
      (error != all.end() ? *error : all.front()).Brief());
}

}  // namespace

void VerifyBuiltGraph(const BuiltGraph& built, const Database& db,
                      const SymbolTable& symbols, DiagnosticSink* sink,
                      const VerifyOptions& options) {
  const InferenceGraph& graph = built.graph;
  Status valid = graph.Validate();
  if (!valid.ok()) {
    sink->Error("V-G001", "",
                StrFormat("built graph fails structural validation: %s",
                          valid.message().c_str()));
    return;
  }
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    int depth = graph.ArcDepth(a);
    if (depth > options.max_depth) {
      sink->Warning("V-G006", StrFormat("arc %u", a),
                    StrFormat("arc '%s' is at depth %d, beyond the "
                              "unfolding bound %d",
                              graph.arc(a).label.c_str(), depth,
                              options.max_depth));
    }
  }
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    const Node& node = graph.node(n);
    if (!node.is_success && node.out_arcs.empty()) {
      sink->Warning("V-G005", StrFormat("node %u", n),
                    StrFormat("subgoal '%s' is a dead end: no rule or "
                              "retrieval applies, so every path through "
                              "it fails",
                              node.label.c_str()),
                    "dead-end arcs add pure cost to every strategy that "
                    "tries them");
    }
  }
  for (ArcId a : graph.RetrievalArcs()) {
    auto it = built.retrievals.find(a);
    if (it == built.retrievals.end()) {
      sink->Error("V-G007", StrFormat("arc %u", a),
                  StrFormat("retrieval arc '%s' has no retrieval "
                            "specification",
                            graph.arc(a).label.c_str()));
      continue;
    }
    SymbolId pred = it->second.predicate;
    if (db.Arity(pred) < 0) {
      sink->Error("V-G007", StrFormat("arc %u", a),
                  StrFormat("retrieval arc '%s' queries relation '%s', "
                            "which has no facts in the database; the "
                            "retrieval can never succeed",
                            graph.arc(a).label.c_str(),
                            symbols.Name(pred).c_str()),
                  "load facts for the relation or remove the rule that "
                  "references it");
    }
  }
}

std::optional<InferenceGraph> VerifyGraphText(std::string_view text,
                                              DiagnosticSink* sink,
                                              const VerifyOptions& options) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "stratlearn-graph v1") {
    sink->Error("V-G008", "line 1",
                "missing 'stratlearn-graph v1' header line");
    return std::nullopt;
  }
  size_t errors_before = sink->num_errors();
  GraphRecords records;
  std::vector<std::string_view> tokens;
  std::string_view rest;
  bool arcs_seen = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (Trim(line).empty()) continue;
    std::string location = StrFormat("line %zu", i + 1);
    if (StartsWith(line, "node ")) {
      if (arcs_seen) {
        sink->Error("V-G008", location,
                    "node record after the first arc record; nodes must "
                    "be declared first");
        continue;
      }
      if (!TakeTokens(line.substr(5), 1, &tokens, &rest) ||
          (tokens[0] != "0" && tokens[0] != "1")) {
        sink->Error("V-G008", location, "malformed node record",
                    "expected: node <is_success:0|1> <label>");
        continue;
      }
      records.nodes.push_back({tokens[0] == "1", std::string(rest)});
    } else if (StartsWith(line, "arc ")) {
      arcs_seen = true;
      GraphRecords::ArcRecord arc;
      arc.line = static_cast<int>(i + 1);
      if (!TakeTokens(line.substr(4), 7, &tokens, &rest) ||
          !ParseInteger(tokens[0], &arc.from) ||
          !ParseInteger(tokens[1], &arc.to) ||
          (tokens[2] != "R" && tokens[2] != "D") ||
          !ParseDouble(tokens[3], &arc.cost) ||
          !ParseDouble(tokens[4], &arc.success_cost) ||
          !ParseDouble(tokens[5], &arc.failure_cost) ||
          (tokens[6] != "0" && tokens[6] != "1")) {
        sink->Error("V-G008", location, "malformed arc record",
                    "expected: arc <from> <to> <kind:R|D> <cost> "
                    "<success_cost> <failure_cost> <is_experiment:0|1> "
                    "<label>");
        continue;
      }
      arc.kind = tokens[2] == "D" ? ArcKind::kRetrieval : ArcKind::kReduction;
      arc.is_experiment = tokens[6] == "1";
      arc.label = std::string(rest);
      records.arcs.push_back(std::move(arc));
    } else {
      sink->Error("V-G008", location,
                  StrFormat("unrecognised record '%s'",
                            std::string(Trim(line).substr(0, 32)).c_str()),
                  "expected 'node ...' or 'arc ...'");
    }
  }
  if (records.nodes.empty()) {
    sink->Error("V-G008", "", "graph file declares no nodes");
    return std::nullopt;
  }
  CheckGraphRecords(records, sink, options);
  if (sink->num_errors() == errors_before) CheckBuildOrder(records, sink);
  if (sink->num_errors() != errors_before) return std::nullopt;
  return BuildGraph(records);
}

Result<InferenceGraph> DeserializeGraph(std::string_view text) {
  DiagnosticSink sink;
  std::optional<InferenceGraph> graph = VerifyGraphText(text, &sink);
  if (!graph) return LoadError(sink);
  return *std::move(graph);
}

std::optional<AndOrGraph> VerifyAndOrText(std::string_view text,
                                          DiagnosticSink* sink) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != "stratlearn-andor v1") {
    sink->Error("V-A006", "line 1",
                "missing 'stratlearn-andor v1' header line");
    return std::nullopt;
  }
  size_t findings_before = sink->size();
  struct NodeRecord {
    AndOrKind kind = AndOrKind::kLeaf;
    uint32_t parent = kInvalidAndOrNode;
    bool is_root = false;
    double cost = 1.0;
    std::string label;
    int line = 0;
    int children = 0;
  };
  std::vector<NodeRecord> nodes;
  std::vector<std::string_view> tokens;
  std::string_view rest;
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = lines[i];
    if (Trim(line).empty()) continue;
    std::string location = StrFormat("line %zu", i + 1);
    if (!StartsWith(line, "node ")) {
      sink->Error("V-A006", location,
                  StrFormat("unrecognised record '%s'",
                            std::string(Trim(line).substr(0, 32)).c_str()),
                  "expected 'node <kind:A|O|L> <parent|-> <cost> <label>'");
      continue;
    }
    NodeRecord node;
    node.line = static_cast<int>(i + 1);
    bool ok = TakeTokens(line.substr(5), 3, &tokens, &rest) &&
              (tokens[0] == "A" || tokens[0] == "O" || tokens[0] == "L") &&
              (tokens[1] == "-" || ParseInteger(tokens[1], &node.parent)) &&
              ParseDouble(tokens[2], &node.cost);
    if (!ok) {
      sink->Error("V-A006", location, "malformed node record",
                  "expected: node <kind:A|O|L> <parent|-> <cost> <label>");
      continue;
    }
    node.kind = tokens[0] == "A"   ? AndOrKind::kAnd
                : tokens[0] == "O" ? AndOrKind::kOr
                                   : AndOrKind::kLeaf;
    node.is_root = tokens[1] == "-";
    node.label = std::string(rest);
    nodes.push_back(std::move(node));
  }
  for (size_t n = 0; n < nodes.size(); ++n) {
    NodeRecord& node = nodes[n];
    std::string location = StrFormat("line %d", node.line);
    if (node.is_root) {
      if (n != 0) {
        sink->Error("V-A005", location,
                    StrFormat("node %zu has parent '-' but node 0 is "
                              "already the root; an AND/OR tree has "
                              "exactly one root",
                              n));
      }
    } else {
      if (node.parent >= n) {
        sink->Error("V-A001", location,
                    StrFormat("node %zu names parent %u, which is %s; "
                              "parents must be earlier nodes",
                              n, node.parent,
                              node.parent >= nodes.size()
                                  ? "not declared"
                                  : "not declared yet"));
      } else if (nodes[node.parent].kind == AndOrKind::kLeaf) {
        sink->Error("V-A003", location,
                    StrFormat("node %zu names leaf node %u as its parent; "
                              "leaves are experiments and cannot have "
                              "children",
                              n, node.parent));
      } else {
        ++nodes[node.parent].children;
      }
    }
    if (node.kind != AndOrKind::kLeaf) continue;
    if (node.cost <= 0.0) {
      sink->Error("V-A004", location,
                  StrFormat("leaf node %zu has non-positive cost %s; "
                            "attempt costs must be positive",
                            n, FormatDouble(node.cost).c_str()));
    } else if (!std::isfinite(node.cost)) {
      sink->Error("V-A004", location,
                  StrFormat("leaf node %zu has cost %s; attempt costs "
                            "must be finite",
                            n, FormatDouble(node.cost).c_str()));
    }
  }
  for (size_t n = 0; n < nodes.size(); ++n) {
    if (nodes[n].kind != AndOrKind::kLeaf && nodes[n].children == 0) {
      sink->Warning("V-A002", StrFormat("line %d", nodes[n].line),
                    StrFormat("internal %s node %zu has no children; it "
                              "can never be satisfied",
                              nodes[n].kind == AndOrKind::kAnd ? "AND"
                                                               : "OR",
                              n),
                    "an empty OR fails always; give the node children or "
                    "remove it");
    }
  }
  if (nodes.empty()) {
    sink->Error("V-A006", "", "AND/OR file declares no nodes");
  }
  // The V-A002 warning blocks loading too: AndOrGraph::Validate refuses
  // a childless internal node.
  if (sink->size() != findings_before) return std::nullopt;
  AndOrGraph graph;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const NodeRecord& node = nodes[n];
    if (n == 0) {
      graph.AddRoot(node.kind, node.label, node.cost);
    } else if (node.kind == AndOrKind::kLeaf) {
      graph.AddLeaf(node.parent, node.label, node.cost);
    } else {
      graph.AddInternal(node.parent, node.kind, node.label);
    }
  }
  return graph;
}

Result<AndOrGraph> DeserializeAndOrGraph(std::string_view text) {
  DiagnosticSink sink;
  std::optional<AndOrGraph> graph = VerifyAndOrText(text, &sink);
  if (!graph) return LoadError(sink);
  return *std::move(graph);
}

}  // namespace stratlearn::verify
