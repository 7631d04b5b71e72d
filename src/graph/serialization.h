#ifndef STRATLEARN_GRAPH_SERIALIZATION_H_
#define STRATLEARN_GRAPH_SERIALIZATION_H_

#include <string>

#include "graph/inference_graph.h"

namespace stratlearn {

/// Line-oriented text serialisation of inference graphs, so a deployment
/// can persist the graph (and, via engine/strategy serialisation, the
/// learned strategy) across query-processor restarts.
///
/// Format (one record per line; the label is the rest of the line, so it
/// may contain spaces):
///
///   stratlearn-graph v1
///   node <is_success:0|1> <label>
///   arc <from> <to> <kind:R|D> <cost> <success_cost> <failure_cost>
///       <is_experiment:0|1> <label>        (one line, wrapped here)
///
/// Nodes and arcs appear in id order, so arc i leads to node i + 1.
/// Costs round-trip via shortest exact decimal (%.17g). The reader,
/// verify::DeserializeGraph, is the V-G verify pass itself, so the
/// loader and `stratlearn_cli verify` accept the same files.
std::string SerializeGraph(const InferenceGraph& graph);

}  // namespace stratlearn

#endif  // STRATLEARN_GRAPH_SERIALIZATION_H_
