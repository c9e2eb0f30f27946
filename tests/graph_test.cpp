// Tests for graphs, union-find, components and generators.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "fixtures.h"
#include "graph/arboricity.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/union_find.h"

namespace bcclb {
namespace {

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, RejectsSelfLoopsAndDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::invalid_argument);
}

TEST(Graph, EdgeCanonicalOrder) {
  const Edge e(3, 1);
  EXPECT_EQ(e.u, 1u);
  EXPECT_EQ(e.v, 3u);
  EXPECT_EQ(Edge(1, 3), Edge(3, 1));
}

TEST(Graph, EqualityIgnoresInsertionOrder) {
  Graph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_edge(0, 1);
  EXPECT_TRUE(a == b);
}

TEST(Graph, Regularity) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_FALSE(g.is_regular(1));
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.num_sets(), 4u);
}

TEST(UnionFind, CanonicalLabelsAreMinima) {
  UnionFind uf(6);
  uf.unite(4, 2);
  uf.unite(2, 5);
  uf.unite(0, 3);
  const auto labels = uf.canonical_labels();
  EXPECT_EQ(labels[2], 2u);
  EXPECT_EQ(labels[4], 2u);
  EXPECT_EQ(labels[5], 2u);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[3], 0u);
  EXPECT_EQ(labels[1], 1u);
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), std::invalid_argument);
}

TEST(Components, PathIsConnected) {
  EXPECT_TRUE(is_connected(path_graph(10)));
  EXPECT_EQ(num_components(path_graph(10)), 1u);
}

TEST(Components, IsolatedVertices) {
  Graph g(4);
  EXPECT_EQ(num_components(g), 4u);
  EXPECT_FALSE(is_connected(g));
}

TEST(Components, LabelsAreComponentMinima) {
  Graph g(6);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(0, 2);
  const auto labels = component_labels(g);
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(labels[5], 3u);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[2], 0u);
  EXPECT_EQ(labels[1], 1u);
}

TEST(Components, AgreesWithUnionFind) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_gnp(40, 0.04, rng);
    UnionFind uf(40);
    for (const Edge& e : g.edges()) uf.unite(e.u, e.v);
    const auto bfs = component_labels(g);
    const auto dsu = uf.canonical_labels();
    for (std::size_t v = 0; v < 40; ++v) {
      EXPECT_EQ(static_cast<std::size_t>(bfs[v]), dsu[v]) << "trial " << trial << " v " << v;
    }
  }
}

TEST(Generators, RandomOneCycleIsOneCycle) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const auto cs = random_one_cycle(12, rng);
    EXPECT_TRUE(cs.is_one_cycle());
    EXPECT_TRUE(is_connected(cs.to_graph()));
  }
}

TEST(Generators, RandomTwoCycleShape) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const auto cs = random_two_cycle(13, rng);
    EXPECT_TRUE(cs.is_two_cycle());
    EXPECT_GE(cs.smallest_cycle_length(), 3u);
    EXPECT_EQ(num_components(cs.to_graph()), 2u);
  }
}

TEST(Generators, ForestHasExpectedComponentsAndEdges) {
  Rng rng(4);
  for (std::size_t trees = 1; trees <= 4; ++trees) {
    const Graph f = random_forest(25, trees, rng);
    EXPECT_EQ(num_components(f), trees);
    EXPECT_EQ(f.num_edges(), 25u - trees);
  }
}

TEST(Generators, GnpExtremes) {
  Rng rng(6);
  EXPECT_EQ(random_gnp(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(random_gnp(10, 1.0, rng).num_edges(), 45u);
}

TEST(Arboricity, KnownValues) {
  Rng rng(21);
  // Cycles: n edges, any forest holds <= n-1 => arboricity exactly 2.
  const Graph cyc = random_one_cycle(12, rng).to_graph();
  EXPECT_EQ(arboricity_lower_bound(cyc), 2u);
  EXPECT_EQ(arboricity_upper_bound(cyc), 2u);
  // Forests: exactly 1.
  const Graph forest = random_forest(15, 3, rng);
  EXPECT_EQ(arboricity_upper_bound(forest), 1u);
  // Empty graph: 0.
  EXPECT_EQ(arboricity_upper_bound(Graph(5)), 0u);
  EXPECT_EQ(arboricity_lower_bound(Graph(5)), 0u);
}

TEST(Arboricity, DecompositionIsAPartitionIntoForests) {
  Rng rng(22);
  const Graph g = random_gnp(14, 0.4, rng);
  const auto forests = greedy_forest_decomposition(g);
  std::size_t total = 0;
  for (const auto& f : forests) {
    total += f.size();
    // Each class is acyclic: |edges| <= vertices - components.
    UnionFind uf(14);
    for (const Edge& e : f) EXPECT_TRUE(uf.unite(e.u, e.v));
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_GE(forests.size(), arboricity_lower_bound(g));
}

TEST(Arboricity, UpperDominatesLower) {
  Rng rng(23);
  for (double p : {0.1, 0.3, 0.6}) {
    const Graph g = random_gnp(16, p, rng);
    EXPECT_GE(arboricity_upper_bound(g), arboricity_lower_bound(g)) << p;
  }
}

}  // namespace
}  // namespace bcclb
