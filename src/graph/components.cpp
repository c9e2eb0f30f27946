#include "graph/components.h"

#include <algorithm>
#include <queue>

namespace bcclb {

std::vector<VertexId> component_labels(const Graph& g) {
  const std::size_t n = g.num_vertices();
  constexpr VertexId kUnvisited = static_cast<VertexId>(-1);
  std::vector<VertexId> label(n, kUnvisited);
  std::queue<VertexId> frontier;
  for (VertexId s = 0; s < n; ++s) {
    if (label[s] != kUnvisited) continue;
    // s is the smallest vertex of its component (we scan in increasing order).
    label[s] = s;
    frontier.push(s);
    while (!frontier.empty()) {
      VertexId v = frontier.front();
      frontier.pop();
      for (VertexId w : g.neighbors(v)) {
        if (label[w] == kUnvisited) {
          label[w] = s;
          frontier.push(w);
        }
      }
    }
  }
  return label;
}

std::size_t num_components(const Graph& g) {
  const auto labels = component_labels(g);
  std::size_t count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == v) ++count;
  }
  return count;
}

bool is_connected(const Graph& g) {
  return g.num_vertices() == 0 || num_components(g) == 1;
}

}  // namespace bcclb
