#ifndef STRATLEARN_ANDOR_AND_OR_SERIALIZATION_H_
#define STRATLEARN_ANDOR_AND_OR_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "andor/and_or_graph.h"
#include "andor/and_or_strategy.h"
#include "util/status.h"

namespace stratlearn {

/// Text round-trip for AND/OR structures and their strategies, matching
/// src/graph/serialization.h's deployment story.
///
/// Graph format:
///   stratlearn-andor v1
///   node <kind:A|O|L> <parent|-> <cost> <label>
/// Nodes appear in id order (node 0 is the root, parent '-'). The
/// reader, verify::DeserializeAndOrGraph, is the V-A verify pass.
std::string SerializeAndOrGraph(const AndOrGraph& graph);

/// Strategy format (one line):
///   stratlearn-andor-strategy v1 <node:order,order,...> ...
/// Only nodes with >= 2 children are listed.
std::string SerializeAndOrStrategy(const AndOrGraph& graph,
                                   const AndOrStrategy& strategy);
Result<AndOrStrategy> DeserializeAndOrStrategy(const AndOrGraph& graph,
                                               std::string_view text);

}  // namespace stratlearn

#endif  // STRATLEARN_ANDOR_AND_OR_SERIALIZATION_H_
