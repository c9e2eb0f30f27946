// Connected components via BFS, plus helpers the experiments rely on:
// connectivity predicates and canonical component labelings (label = smallest
// vertex of the component, the convention ConnectedComponents outputs use).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace bcclb {

// Component label per vertex; labels are the minimum vertex id in each
// component, so two labelings compare equal iff the partitions are equal.
std::vector<VertexId> component_labels(const Graph& g);

std::size_t num_components(const Graph& g);

bool is_connected(const Graph& g);

}  // namespace bcclb
