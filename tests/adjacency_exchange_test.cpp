// Tests for the universal adjacency-exchange algorithm and its predicates
// (the Θ(n/b) ceiling over the paper's entire landscape; [DKO14]'s
// K4-detection bound makes it optimal for subgraph detection).
#include <gtest/gtest.h>

#include "bcc/algorithms/adjacency_exchange.h"
#include "bcc/algorithms/kt0_bootstrap.h"
#include "common/random.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

RunResult run_exchange(const Graph& g, unsigned b, GraphPredicate pred) {
  RoundEngine engine;
  return engine.run(BccInstance::kt1(g), b, adjacency_exchange_factory(std::move(pred)),
                    AdjacencyExchangeAlgorithm::rounds_needed(g.num_vertices(), b) + 1);
}

TEST(AdjacencyExchange, ReconstructionIsExactForAnyPredicate) {
  // The "count edges" predicate pins the reconstruction: its value must be
  // the true edge count parity on every random graph.
  Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = random_gnp(12, 0.3, rng);
    const std::size_t want = g.num_edges();
    const RunResult r = run_exchange(g, 4, [want](const Graph& got) {
      return got.num_edges() == want && got.is_regular(0) == (want == 0);
    });
    EXPECT_TRUE(r.all_finished);
    EXPECT_TRUE(r.decision) << "trial " << trial;
  }
}

TEST(AdjacencyExchange, ExactlyReconstructsTheGraph) {
  Rng rng(2);
  const Graph g = random_gnp(10, 0.25, rng);
  const RunResult r = run_exchange(g, 2, [&g](const Graph& got) { return got == g; });
  EXPECT_TRUE(r.decision);
}

TEST(AdjacencyExchange, RoundsAreCeilNOverB) {
  Rng rng(3);
  const Graph g = random_gnp(24, 0.2, rng);
  for (unsigned b : {1u, 3u, 8u, 24u}) {
    const RunResult r = run_exchange(g, b, connectivity_predicate());
    EXPECT_EQ(r.rounds_executed, (24 + b - 1) / b) << "b=" << b;
  }
}

TEST(AdjacencyExchange, ConnectivityAgreesWithReference) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_gnp(14, 1.4 / 14.0, rng);
    EXPECT_EQ(run_exchange(g, 4, connectivity_predicate()).decision, is_connected(g));
  }
}

TEST(K4Detection, BruteForceReference) {
  Graph k4(5);
  for (VertexId a = 0; a < 4; ++a) {
    for (VertexId b = a + 1; b < 4; ++b) k4.add_edge(a, b);
  }
  EXPECT_TRUE(graph_has_k4(k4));
  Rng rng(5);
  EXPECT_FALSE(graph_has_k4(random_one_cycle(8, rng).to_graph()));
  // K4 minus one edge is K4-free.
  Graph almost(4);
  almost.add_edge(0, 1);
  almost.add_edge(0, 2);
  almost.add_edge(0, 3);
  almost.add_edge(1, 2);
  almost.add_edge(1, 3);
  EXPECT_FALSE(graph_has_k4(almost));
}

TEST(K4Detection, DistributedMatchesLocal) {
  Rng rng(6);
  for (double p : {0.2, 0.4, 0.6}) {
    const Graph g = random_gnp(12, p, rng);
    EXPECT_EQ(run_exchange(g, 4, k4_free_predicate()).decision, !graph_has_k4(g)) << p;
  }
}

TEST(DiameterPredicate, KnownValues) {
  EXPECT_TRUE(diameter_at_most_predicate(9)(path_graph(10)));
  EXPECT_FALSE(diameter_at_most_predicate(8)(path_graph(10)));
  // Disconnected graphs fail every finite bound.
  EXPECT_FALSE(diameter_at_most_predicate(100)(Graph(4)));
  Rng rng(7);
  const Graph cyc = random_one_cycle(12, rng).to_graph();
  EXPECT_TRUE(diameter_at_most_predicate(6)(cyc));
  EXPECT_FALSE(diameter_at_most_predicate(5)(cyc));
}

TEST(AdjacencyExchange, RequiresKt1ButBootstrapLiftsIt) {
  Rng rng(8);
  const Graph g = random_gnp(10, 0.3, rng);
  const BccInstance kt0 = BccInstance::random_kt0(g, rng);
  RoundEngine engine;
  {
    EXPECT_THROW(engine.run(kt0, 4, adjacency_exchange_factory(connectivity_predicate()), 10),
                 std::invalid_argument);
  }
  {
    const RunResult r =
        engine.run(kt0, 4, kt0_bootstrap(adjacency_exchange_factory(connectivity_predicate())),
                   Kt0BootstrapAlgorithm::bootstrap_rounds(10, 4) +
                       AdjacencyExchangeAlgorithm::rounds_needed(10, 4) + 1);
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.decision, is_connected(g));
  }
}

}  // namespace
}  // namespace bcclb
