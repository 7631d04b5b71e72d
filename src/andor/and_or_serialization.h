#ifndef STRATLEARN_ANDOR_AND_OR_SERIALIZATION_H_
#define STRATLEARN_ANDOR_AND_OR_SERIALIZATION_H_

#include <string>

#include "andor/and_or_graph.h"

namespace stratlearn {

/// Text round-trip for AND/OR graphs, matching src/graph/serialization.h's
/// deployment story.
///
/// Graph format:
///   stratlearn-andor v1
///   node <kind:A|O|L> <parent|-> <cost> <label>
/// Nodes appear in id order (node 0 is the root, parent '-'). The
/// reader, verify::DeserializeAndOrGraph, is the V-A verify pass.
std::string SerializeAndOrGraph(const AndOrGraph& graph);

}  // namespace stratlearn

#endif  // STRATLEARN_ANDOR_AND_OR_SERIALIZATION_H_
