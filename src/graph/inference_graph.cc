#include "graph/inference_graph.h"

#include <algorithm>

#include "util/check.h"
#include "util/string_util.h"

namespace stratlearn {

NodeId InferenceGraph::AddRoot(std::string label) {
  STRATLEARN_CHECK_MSG(nodes_.empty(), "AddRoot must be the first call");
  Node node;
  node.label = std::move(label);
  nodes_.push_back(std::move(node));
  return 0;
}

InferenceGraph::AddResult InferenceGraph::AddChild(
    NodeId parent, std::string node_label, ArcKind kind, double cost,
    std::string arc_label, bool is_experiment, bool is_success) {
  STRATLEARN_CHECK(parent < nodes_.size());
  STRATLEARN_CHECK_MSG(!nodes_[parent].is_success,
                       "success nodes cannot have children");
  STRATLEARN_CHECK_MSG(cost > 0.0, "arc costs must be positive");

  NodeId node_id = static_cast<NodeId>(nodes_.size());
  ArcId arc_id = static_cast<ArcId>(arcs_.size());

  Node node;
  node.label = std::move(node_label);
  node.is_success = is_success;
  node.incoming = arc_id;
  nodes_.push_back(std::move(node));

  Arc arc;
  arc.from = parent;
  arc.to = node_id;
  arc.kind = kind;
  arc.cost = cost;
  arc.label = std::move(arc_label);
  if (is_experiment) {
    arc.experiment = static_cast<int>(experiments_.size());
    experiments_.push_back(arc_id);
  }
  arcs_.push_back(std::move(arc));
  nodes_[parent].out_arcs.push_back(arc_id);
  return {node_id, arc_id};
}

InferenceGraph::AddResult InferenceGraph::AddRetrieval(
    NodeId parent, double cost, std::string arc_label) {
  return AddChild(parent, "[" + arc_label + "]", ArcKind::kRetrieval, cost,
                  arc_label, /*is_experiment=*/true, /*is_success=*/true);
}

void InferenceGraph::SetOutcomeCosts(ArcId id, double on_success,
                                     double on_failure) {
  STRATLEARN_CHECK(id < arcs_.size());
  STRATLEARN_CHECK_MSG(on_success >= 0.0 && on_failure >= 0.0,
                       "outcome costs must be non-negative");
  arcs_[id].success_cost = on_success;
  arcs_[id].failure_cost = on_failure;
}

std::vector<ArcId> InferenceGraph::RetrievalArcs() const {
  std::vector<ArcId> out;
  for (ArcId a = 0; a < arcs_.size(); ++a) {
    if (arcs_[a].kind == ArcKind::kRetrieval) out.push_back(a);
  }
  return out;
}

std::vector<ArcId> InferenceGraph::SuccessArcs() const {
  std::vector<ArcId> out;
  for (ArcId a = 0; a < arcs_.size(); ++a) {
    if (nodes_[arcs_[a].to].is_success) out.push_back(a);
  }
  return out;
}

std::vector<double> InferenceGraph::AllFStar() const {
  // Arcs were appended child-after-parent, so a reverse sweep sees every
  // subtree arc before its ancestors.
  std::vector<double> fstar(arcs_.size(), 0.0);
  std::vector<double> node_sum(nodes_.size(), 0.0);  // sum of f* of out arcs
  for (ArcId a = arcs_.size(); a-- > 0;) {
    fstar[a] = arcs_[a].MaxCost() + node_sum[arcs_[a].to];
    node_sum[arcs_[a].from] += fstar[a];
  }
  return fstar;
}

double InferenceGraph::FStar(ArcId id) const {
  STRATLEARN_CHECK(id < arcs_.size());
  double total = 0.0;
  for (ArcId a : SubtreeArcs(id)) total += arcs_[a].MaxCost();
  return total;
}

double InferenceGraph::TotalCost() const {
  double total = 0.0;
  for (const Arc& a : arcs_) total += a.MaxCost();
  return total;
}

double InferenceGraph::FNeg(ArcId id) const {
  double pi_cost = 0.0;
  for (ArcId a : Pi(id)) pi_cost += arcs_[a].MaxCost();
  return TotalCost() - pi_cost - FStar(id);
}

std::vector<ArcId> InferenceGraph::Pi(ArcId id) const {
  STRATLEARN_CHECK(id < arcs_.size());
  std::vector<ArcId> path;
  NodeId n = arcs_[id].from;
  while (nodes_[n].incoming != kInvalidArc) {
    path.push_back(nodes_[n].incoming);
    n = arcs_[nodes_[n].incoming].from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<ArcId> InferenceGraph::SubtreeArcs(ArcId id) const {
  STRATLEARN_CHECK(id < arcs_.size());
  std::vector<ArcId> out;
  std::vector<ArcId> stack = {id};
  while (!stack.empty()) {
    ArcId a = stack.back();
    stack.pop_back();
    out.push_back(a);
    const Node& head = nodes_[arcs_[a].to];
    for (auto it = head.out_arcs.rbegin(); it != head.out_arcs.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return out;
}

int InferenceGraph::ArcDepth(ArcId id) const {
  return static_cast<int>(Pi(id).size());
}

Status InferenceGraph::Validate() const {
  if (nodes_.empty()) return Status::FailedPrecondition("graph has no root");
  if (nodes_[0].incoming != kInvalidArc) {
    return Status::Internal("root has an incoming arc");
  }
  for (NodeId n = 1; n < nodes_.size(); ++n) {
    if (nodes_[n].incoming == kInvalidArc) {
      return Status::Internal(
          StrFormat("non-root node %u has no incoming arc", n));
    }
    if (nodes_[n].is_success && !nodes_[n].out_arcs.empty()) {
      return Status::Internal(
          StrFormat("success node %u has outgoing arcs", n));
    }
  }
  for (ArcId a = 0; a < arcs_.size(); ++a) {
    if (arcs_[a].cost <= 0.0) {
      return Status::Internal(StrFormat("arc %u has non-positive cost", a));
    }
    if (arcs_[a].kind == ArcKind::kRetrieval && arcs_[a].experiment < 0) {
      return Status::Internal(
          StrFormat("retrieval arc %u is not an experiment", a));
    }
  }
  return Status::OK();
}

std::string InferenceGraph::ToDot(const std::string& graph_name) const {
  std::string out = "digraph " + graph_name + " {\n";
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    out += StrFormat("  n%u [label=\"%s\"%s];\n", n, nodes_[n].label.c_str(),
                     nodes_[n].is_success ? ", shape=box" : "");
  }
  for (const Arc& a : arcs_) {
    const char* style =
        a.kind == ArcKind::kRetrieval ? ", style=dashed" : "";
    out += StrFormat("  n%u -> n%u [label=\"%s (%s)\"%s];\n", a.from, a.to,
                     a.label.c_str(), FormatDouble(a.cost).c_str(), style);
  }
  out += "}\n";
  return out;
}

}  // namespace stratlearn
