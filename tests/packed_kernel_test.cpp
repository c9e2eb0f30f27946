// Tests for the packed combinatorial kernel: the 64-bit successor-word
// encoding of cycle structures, CSR adjacency, the hash-indexed crossing
// kernel against a structure-level reference builder, and determinism of the
// sharded build across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "crossing/csr_adjacency.h"
#include "crossing/indistinguishability_graph.h"
#include "crossing/matching.h"
#include "fixtures.h"
#include "graph/cycle_structure.h"

namespace bcclb {
namespace {

// ---- Packed successor words -------------------------------------------------

TEST(PackedStructure, RoundTripsAllStructuresUpTo8) {
  for (std::size_t n = 6; n <= 8; ++n) {
    for (const auto& cs : all_one_cycle_structures(n)) {
      EXPECT_EQ(CycleStructure::from_packed(cs.packed_successors(), n), cs);
    }
    for (const auto& cs : all_two_cycle_structures(n)) {
      EXPECT_EQ(CycleStructure::from_packed(cs.packed_successors(), n), cs);
    }
  }
}

TEST(PackedStructure, SuccessorAccessorsMatchDirectedEdges) {
  for (const auto& cs : all_two_cycle_structures(7)) {
    const PackedStructure s = cs.packed_successors();
    for (const DirectedEdge& e : cs.directed_edges()) {
      EXPECT_EQ(packed_successor(s, e.tail), e.head);
    }
  }
}

TEST(PackedStructure, WithSuccessorWritesOneNibble) {
  PackedStructure s = 0;
  s = packed_with_successor(s, 3, 9);
  s = packed_with_successor(s, 0, 15);
  EXPECT_EQ(packed_successor(s, 3), 9u);
  EXPECT_EQ(packed_successor(s, 0), 15u);
  s = packed_with_successor(s, 3, 1);
  EXPECT_EQ(packed_successor(s, 3), 1u);
  EXPECT_EQ(packed_successor(s, 0), 15u);
}

TEST(PackedStructure, CanonicalPackedIsCanonicalizationInWordForm) {
  // Crossing any independent pair and re-canonicalizing through the packed
  // path must agree with the structure-level crossed() (which canonicalizes
  // through vectors of cycles).
  for (const auto& cs : all_one_cycle_structures(7)) {
    const PackedStructure s = cs.packed_successors();
    const auto edges = cs.directed_edges();
    for (std::size_t a = 0; a < edges.size(); ++a) {
      for (std::size_t b = a + 1; b < edges.size(); ++b) {
        if (!cs.edges_independent(edges[a], edges[b])) continue;
        PackedStructure crossed = packed_with_successor(s, edges[a].tail, edges[b].head);
        crossed = packed_with_successor(crossed, edges[b].tail, edges[a].head);
        EXPECT_EQ(canonical_packed(crossed, 7),
                  cs.crossed(edges[a], edges[b]).packed_successors());
      }
    }
  }
}

// ---- CSR adjacency ----------------------------------------------------------

TEST(CsrAdjacency, RowAccessors) {
  const CsrAdjacency csr = csr_from_rows({{3, 1}, {}, {2}, {0, 0, 7}});
  EXPECT_EQ(csr.num_rows(), 4u);
  EXPECT_EQ(csr.num_entries(), 6u);
  EXPECT_EQ(csr.row_size(1), 0u);
  EXPECT_EQ(csr.row(3).size(), 3u);
  EXPECT_EQ(csr.row(0)[0], 3u);
  EXPECT_EQ(csr.row(3)[2], 7u);
}

// ---- Kernel vs structure-level reference builder ----------------------------

// The pre-packed builder, reconstructed verbatim at structure level: cross
// every independent active pair, canonicalize, dedup by string key against
// the enumeration order of V2.
std::vector<std::vector<std::uint32_t>> reference_adjacency(std::size_t n) {
  const auto one_cycles = all_one_cycle_structures(n);
  const auto two_cycles = all_two_cycle_structures(n);
  std::map<std::string, std::uint32_t> index;
  for (std::uint32_t j = 0; j < two_cycles.size(); ++j) index[two_cycles[j].key()] = j;
  std::vector<std::vector<std::uint32_t>> adj(one_cycles.size());
  for (std::size_t i = 0; i < one_cycles.size(); ++i) {
    const auto edges = one_cycles[i].directed_edges();
    for (std::size_t a = 0; a < edges.size(); ++a) {
      for (std::size_t b = a + 1; b < edges.size(); ++b) {
        if (!one_cycles[i].edges_independent(edges[a], edges[b])) continue;
        adj[i].push_back(index.at(one_cycles[i].crossed(edges[a], edges[b]).key()));
      }
    }
    std::sort(adj[i].begin(), adj[i].end());
    adj[i].erase(std::unique(adj[i].begin(), adj[i].end()), adj[i].end());
  }
  return adj;
}

TEST(PackedKernel, MatchesReferenceBuilderAllActive) {
  for (std::size_t n = 6; n <= 8; ++n) {
    const auto g = build_indistinguishability_graph(n, all_edges_active());
    EXPECT_EQ(g.adj, csr_from_rows(reference_adjacency(n))) << "n=" << n;
  }
}

TEST(PackedKernel, ThreadCountDoesNotChangeTheBytes) {
  const auto serial = build_indistinguishability_graph(8, all_edges_active(), 1);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = build_indistinguishability_graph(8, all_edges_active(), threads);
    EXPECT_EQ(parallel.adj, serial.adj) << "threads=" << threads;
    EXPECT_EQ(parallel.one_cycles, serial.one_cycles);
    EXPECT_EQ(parallel.two_cycles, serial.two_cycles);
  }
}

TEST(PackedKernel, RestrictedActivityTableMatchesClosure) {
  // An activity notion that depends on the structure (every other clockwise
  // edge, by tail parity) exercised through both entry points.
  const auto restricted = [](const CycleStructure& cs) {
    std::vector<DirectedEdge> out;
    for (const DirectedEdge& e : cs.directed_edges()) {
      if (e.tail % 2 == 0) out.push_back(e);
    }
    return out;
  };
  const std::size_t n = 7;
  const auto one_cycles = all_one_cycle_structures(n);
  ActiveEdgeTable table;
  for (const auto& cs : one_cycles) {
    const auto row = restricted(cs);
    table.push_row(row);
  }
  const auto via_fn = build_indistinguishability_graph(n, ActiveEdgeFn(restricted));
  const auto via_table =
      build_indistinguishability_graph(one_cycles, all_two_cycle_structures(n), table);
  EXPECT_EQ(via_fn.adj, via_table.adj);
  // And fewer active edges can only shrink the graph.
  const auto all_active = build_indistinguishability_graph(n, all_edges_active());
  EXPECT_LT(via_fn.num_edges(), all_active.num_edges());
}

// ---- CSR matching ------------------------------------------------------------

TEST(CsrMatching, ImplicitCloningMatchesExplicitClones) {
  // HopcroftKarp(adj, right, k) must equal the explicit construction that
  // copies each positive-degree row k times.
  const std::vector<std::vector<std::uint32_t>> nested{
      {0, 1, 2, 3}, {}, {1, 2}, {0, 3, 4, 5}, {2}};
  const CsrAdjacency adj = csr_from_rows(nested);
  for (unsigned k = 1; k <= 3; ++k) {
    std::vector<std::vector<std::uint32_t>> cloned;
    for (const auto& row : nested) {
      if (row.empty()) continue;
      for (unsigned c = 0; c < k; ++c) cloned.push_back(row);
    }
    const CsrAdjacency cloned_adj = csr_from_rows(cloned);
    HopcroftKarp implicit(adj, 6, k);
    HopcroftKarp explicit_hk(cloned_adj, 6);
    EXPECT_EQ(implicit.max_matching(), explicit_hk.max_matching()) << "k=" << k;
  }
}

}  // namespace
}  // namespace bcclb
