// Small builders shared by the test suites: hand-written bipartite
// adjacencies, the path graph, and a sequential BFS to referee the CONGEST
// one. None of them is on a path the shipped tools run.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "crossing/csr_adjacency.h"
#include "graph/graph.h"

namespace bcclb {

// CSR whose row i lists rows[i], in order.
inline CsrAdjacency csr_from_rows(const std::vector<std::vector<std::uint32_t>>& rows) {
  CsrAdjacency csr;
  for (const auto& row : rows) {
    csr.targets.insert(csr.targets.end(), row.begin(), row.end());
    csr.offsets.push_back(static_cast<std::uint32_t>(csr.targets.size()));
  }
  return csr;
}

// Path 0-1-...-(n-1).
inline Graph path_graph(std::size_t n) {
  Graph g(n);
  for (VertexId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

// Hop distances from `source` by sequential BFS; nullopt when unreachable.
inline std::vector<std::optional<unsigned>> reference_distances(const Graph& g,
                                                                VertexId source) {
  std::vector<std::optional<unsigned>> dist(g.num_vertices());
  dist[source] = 0;
  std::queue<VertexId> q;
  q.push(source);
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (VertexId u : g.neighbors(v)) {
      if (!dist[u].has_value()) {
        dist[u] = *dist[v] + 1;
        q.push(u);
      }
    }
  }
  return dist;
}

}  // namespace bcclb
