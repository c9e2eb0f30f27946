// Tests for the KT-0 -> KT-1 bootstrap combinator (Section 1.1's "b = Ω(log n)
// erases the knowledge distinction" remark).
#include <gtest/gtest.h>

#include "bcc/algorithms/boruvka.h"
#include "bcc/algorithms/kt0_bootstrap.h"
#include "bcc/algorithms/sketch_connectivity.h"
#include "common/mathutil.h"
#include "common/random.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

TEST(Bootstrap, RoundsFormula) {
  EXPECT_EQ(Kt0BootstrapAlgorithm::bootstrap_rounds(16, 1), 4u);
  EXPECT_EQ(Kt0BootstrapAlgorithm::bootstrap_rounds(16, 4), 1u);
  EXPECT_EQ(Kt0BootstrapAlgorithm::bootstrap_rounds(17, 1), 5u);
  EXPECT_EQ(Kt0BootstrapAlgorithm::bootstrap_rounds(1024, 10), 1u);
}

TEST(Bootstrap, BoruvkaRunsInKt0ViaBootstrap) {
  Rng rng(1);
  RoundEngine engine;
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_gnp(12, 0.2, rng);
    // Random KT-0 wiring: the inner KT-1 algorithm cannot rely on canonical
    // port order; only the announced IDs.
    const BccInstance inst = BccInstance::random_kt0(g, rng);
    const unsigned b = 5;
    const RunResult r = engine.run(
        inst, b, kt0_bootstrap(boruvka_factory()),
        Kt0BootstrapAlgorithm::bootstrap_rounds(12, b) + BoruvkaAlgorithm::max_rounds(12, b));
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.decision, is_connected(g)) << "trial " << trial;
    const auto labels = component_labels(g);
    for (VertexId v = 0; v < 12; ++v) {
      ASSERT_TRUE(r.labels[v].has_value());
      EXPECT_EQ(*r.labels[v], labels[v]);
    }
  }
}

TEST(Bootstrap, CostMatchesAnnouncePlusInner) {
  Rng rng(2);
  const Graph g = random_one_cycle(16, rng).to_graph();
  const unsigned b = 5;  // ceil_log2(16) = 4 < b: one announcement round
  const BccInstance kt0 = BccInstance::random_kt0(g, rng);
  const BccInstance kt1 = BccInstance::kt1(g);
  RoundEngine engine;
  const RunResult with_bootstrap = engine.run(kt0, b, kt0_bootstrap(boruvka_factory()), 100);
  const RunResult native = engine.run(kt1, b, boruvka_factory(), 100);
  EXPECT_EQ(with_bootstrap.rounds_executed,
            native.rounds_executed + Kt0BootstrapAlgorithm::bootstrap_rounds(16, b));
  EXPECT_EQ(with_bootstrap.decision, native.decision);
}

TEST(Bootstrap, NarrowBandwidthPaysLogN) {
  // At b = 1 the bootstrap costs ceil_log2(n) extra rounds — the knowledge
  // gap the paper's KT-0/KT-1 split is about.
  Rng rng(3);
  const std::size_t n = 32;
  const Graph g = random_one_cycle(n, rng).to_graph();
  const BccInstance kt0 = BccInstance::random_kt0(g, rng);
  RoundEngine engine;
  const RunResult r = engine.run(kt0, 1, kt0_bootstrap(boruvka_factory()), 500);
  EXPECT_TRUE(r.decision);
  EXPECT_GE(r.rounds_executed, ceil_log2(n));
}

TEST(Bootstrap, SynthesizedViewMatchesNativeKt1) {
  // Decision/labels equal on many random wirings: the synthesized KT-1 view
  // is faithful regardless of port permutations.
  Rng rng(4);
  RoundEngine engine;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = random_gnp(10, 0.25, rng);
    const BccInstance kt0 = BccInstance::random_kt0(g, rng);
    const BccInstance kt1 = BccInstance::kt1(g);
    const RunResult a = engine.run(kt0, 4, kt0_bootstrap(boruvka_factory()), 300);
    const RunResult b = engine.run(kt1, 4, boruvka_factory(), 300);
    EXPECT_EQ(a.decision, b.decision);
    for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(a.labels[v], b.labels[v]);
  }
}

TEST(Bootstrap, RequiresSmallIds) {
  Graph g(4);
  g.add_edge(0, 1);
  const BccInstance inst(Wiring::kt1(4), g, KnowledgeMode::kKT0, {0, 1, 2, 100});
  RoundEngine engine;
  EXPECT_THROW(engine.run(inst, 4, kt0_bootstrap(boruvka_factory()), 10),
               std::invalid_argument);
}

TEST(Bootstrap, WorksAtBandwidthOne) {
  // The extreme of the paper's remark: b = 1 pays the full ceil(log2 n)
  // announcement cost but the synthesized KT-1 view is still exact.
  Rng rng(5);
  const Graph g = random_two_cycle(10, rng).to_graph();
  RoundEngine engine;
  const RunResult r =
      engine.run(BccInstance::random_kt0(g, rng), 1, kt0_bootstrap(boruvka_factory()), 1000);
  EXPECT_TRUE(r.all_finished);
  EXPECT_FALSE(r.decision);
  const auto labels = component_labels(g);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(*r.labels[v], labels[v]);
}

TEST(Bootstrap, ComposesWithSketches) {
  // Bootstrap + public coins + sketch connectivity: KT-0 randomized
  // connectivity end to end.
  Rng rng(6);
  const Graph g = random_one_cycle(10, rng).to_graph();
  const PublicCoins coins(77, 4096);
  RoundEngine engine;
  const RunResult r = engine.run(
      BccInstance::random_kt0(g, rng), 16, kt0_bootstrap(sketch_connectivity_factory()),
      Kt0BootstrapAlgorithm::bootstrap_rounds(10, 16) +
          SketchConnectivityAlgorithm::max_rounds(10, 16),
      CoinSpec::public_coins(&coins));
  EXPECT_TRUE(r.all_finished);
  EXPECT_TRUE(r.decision);
}

}  // namespace
}  // namespace bcclb
