// The bipartite indistinguishability graph G^t_{x,y} (Definition 3.6).
//
// Vertices: V1 = all one-cycle structures on [n], V2 = all two-cycle
// structures. I1 ~ I2 iff I2 = I1(e1, e2) for two active independent
// clockwise edges of I1. The activity notion is pluggable: at round 0 all n
// edges are active (that graph drives Lemma 3.9), and after t rounds of a
// concrete algorithm the active set is an edge-label class of the transcript
// (Theorem 3.1). Exhaustive: sizes grow as (n-1)!/2, so n <= 11 (n = 10 is
// the practical frontier: |V1| = 181,440).
//
// The build is a packed kernel: every structure is a 64-bit successor word
// (graph/cycle_structure.h), two-cycle identity is an open-addressing hash
// probe on the canonical word, the inner crossing loop is allocation-free,
// and one-cycle ranges are sharded across the BatchRunner pool with a
// deterministic ordered merge — output is bit-identical to serial at any
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "crossing/csr_adjacency.h"
#include "graph/cycle_structure.h"

namespace bcclb {

// Which directed edges of a structure are currently "active". Must treat
// structurally equal inputs equally (it is called once per structure).
using ActiveEdgeFn = std::function<std::vector<DirectedEdge>(const CycleStructure&)>;

// Everything active — the round-0 graph of Lemma 3.9.
ActiveEdgeFn all_edges_active();

// Precomputed active-edge sets, one flat CSR row per one-cycle (in
// all_one_cycle_structures order). This is the devirtualized form the E4
// adversary loop feeds the kernel: activity comes straight out of stored
// transcripts, with no per-structure closure call or vector allocation in
// the build's inner loop.
struct ActiveEdgeTable {
  std::vector<std::uint32_t> offsets{0};  // size |V1| + 1
  std::vector<DirectedEdge> edges;

  std::size_t num_rows() const { return offsets.size() - 1; }
  std::span<const DirectedEdge> row(std::size_t i) const {
    return std::span<const DirectedEdge>(edges).subspan(offsets[i],
                                                        offsets[i + 1] - offsets[i]);
  }
  void push_row(std::span<const DirectedEdge> row_edges);
};

struct IndistinguishabilityGraph {
  std::vector<CycleStructure> one_cycles;  // V1
  std::vector<CycleStructure> two_cycles;  // V2
  // adj.row(i) = sorted, deduplicated indices into two_cycles reachable from
  // one_cycles[i] by crossing a pair of active independent edges.
  CsrAdjacency adj;

  std::span<const std::uint32_t> neighbors(std::size_t i) const { return adj.row(i); }

  std::size_t num_edges() const { return adj.num_entries(); }
  std::vector<std::size_t> two_cycle_degrees() const;

  // |V2| / |V1| — Lemma 3.9 predicts Θ(log n), i.e. ≈ H_{n/2} - 3/2.
  double size_ratio() const;
};

// Enumerates V1 and V2 and runs the packed crossing kernel. num_threads == 0
// uses the BatchRunner default (BCCLB_THREADS / hardware concurrency); every
// thread count yields identical bytes. The ActiveEdgeFn overload evaluates
// the closure once per one-cycle, serially in enumeration order (closures
// may be stateful), before entering the parallel kernel.
IndistinguishabilityGraph build_indistinguishability_graph(std::size_t n,
                                                           const ActiveEdgeFn& active,
                                                           unsigned num_threads = 0);
IndistinguishabilityGraph build_indistinguishability_graph(std::size_t n,
                                                           const ActiveEdgeTable& active,
                                                           unsigned num_threads = 0);

// Core entry: the crossing kernel over enumerations the caller keeps (the
// strategy search's certificate holds V1 and V2 for the whole run), returning
// only the edges. Row i lists the V2 indices adjacent to one_cycles[i].
// active.num_rows() must equal one_cycles.size().
CsrAdjacency build_indistinguishability_adjacency(std::span<const CycleStructure> one_cycles,
                                                  std::span<const CycleStructure> two_cycles,
                                                  const ActiveEdgeTable& active,
                                                  unsigned num_threads = 0);

// The same, taking ownership of both vertex sets into the returned graph
// (E4 enumerates V1 once for its transcript sweep).
IndistinguishabilityGraph build_indistinguishability_graph(
    std::vector<CycleStructure> one_cycles, std::vector<CycleStructure> two_cycles,
    const ActiveEdgeTable& active, unsigned num_threads = 0);

// Lemma 3.7 verification data for one instance: for each i, the number of
// neighbors of I1 whose degree (in the all-active graph) equals i * (d - i),
// where d is I1's active-edge count.
struct NeighborDegreeProfile {
  std::size_t active_edges = 0;                 // d
  std::vector<std::size_t> split_counts;        // index i (3 <= i <= d/2): #neighbors
                                                // whose smaller cycle has i active edges
};

NeighborDegreeProfile neighbor_degree_profile(const CycleStructure& one_cycle,
                                              const ActiveEdgeFn& active);

}  // namespace bcclb
