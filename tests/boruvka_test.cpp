// Tests for Boruvka-over-broadcast: correctness across sizes and bandwidths,
// logarithmic phase growth, and ConnectedComponents label output.
#include <gtest/gtest.h>

#include <cmath>

#include "bcc/algorithms/boruvka.h"
#include "common/random.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

RunResult run_boruvka(const Graph& g, unsigned bandwidth) {
  const BccInstance inst = BccInstance::kt1(g);
  RoundEngine engine;
  return engine.run(inst, bandwidth, boruvka_factory(),
                    BoruvkaAlgorithm::max_rounds(g.num_vertices(), bandwidth));
}

TEST(Boruvka, ConnectedCycle) {
  Rng rng(1);
  const auto cs = random_one_cycle(16, rng);
  const RunResult r = run_boruvka(cs.to_graph(), 8);
  EXPECT_TRUE(r.all_finished);
  EXPECT_TRUE(r.decision);
}

TEST(Boruvka, TwoCyclesDisconnected) {
  Rng rng(2);
  const auto cs = random_two_cycle(16, rng);
  const RunResult r = run_boruvka(cs.to_graph(), 8);
  EXPECT_FALSE(r.decision);
}

TEST(Boruvka, EmptyGraphAllIsolated) {
  const RunResult r = run_boruvka(Graph(8), 8);
  EXPECT_TRUE(r.all_finished);
  EXPECT_FALSE(r.decision);
}

TEST(Boruvka, RequiresKt1) {
  Rng rng(3);
  const auto cs = random_one_cycle(8, rng);
  const BccInstance inst = BccInstance::random_kt0(cs.to_graph(), rng);
  RoundEngine engine;
  EXPECT_THROW(engine.run(inst, 8, boruvka_factory(), 100), std::invalid_argument);
}

struct BoruvkaCase {
  std::size_t n;
  unsigned bandwidth;
};

class BoruvkaSweep : public ::testing::TestWithParam<BoruvkaCase> {};

TEST_P(BoruvkaSweep, MatchesBfsAndLabelsAreComponentMinima) {
  const auto [n, bandwidth] = GetParam();
  Rng rng(n * 31 + bandwidth);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = random_gnp(n, 1.2 / static_cast<double>(n), rng);
    const RunResult r = run_boruvka(g, bandwidth);
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.decision, is_connected(g)) << "n=" << n << " b=" << bandwidth;
    const auto labels = component_labels(g);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_TRUE(r.labels[v].has_value());
      EXPECT_EQ(*r.labels[v], labels[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBandwidths, BoruvkaSweep,
    ::testing::Values(BoruvkaCase{6, 1}, BoruvkaCase{6, 4}, BoruvkaCase{12, 1},
                      BoruvkaCase{12, 8}, BoruvkaCase{24, 2}, BoruvkaCase{24, 16},
                      BoruvkaCase{48, 8}, BoruvkaCase{64, 8}));

TEST(Boruvka, RoundsScaleWithPhaseBudget) {
  // At b = 1 + ceil(log2 n), a phase is one round; rounds <= log2(n) + 2.
  for (std::size_t n : {8u, 16u, 32u, 64u}) {
    Rng rng(n);
    const auto cs = random_one_cycle(n, rng);
    const unsigned b = 1 + static_cast<unsigned>(std::ceil(std::log2(n)));
    const RunResult r = run_boruvka(cs.to_graph(), b);
    EXPECT_TRUE(r.decision);
    EXPECT_LE(r.rounds_executed, static_cast<unsigned>(std::log2(n)) + 2)
        << "n=" << n;
  }
}

TEST(Boruvka, NarrowBandwidthMultipliesRounds) {
  // The same phases at b = 1 cost (1 + ceil(log2 n)) rounds each.
  Rng rng(7);
  const auto cs = random_one_cycle(16, rng);
  const RunResult wide = run_boruvka(cs.to_graph(), 5);
  const RunResult narrow = run_boruvka(cs.to_graph(), 1);
  EXPECT_EQ(narrow.rounds_executed, wide.rounds_executed * 5);
}

TEST(Boruvka, PathGraphConnected) {
  const RunResult r = run_boruvka(path_graph(33), 8);
  EXPECT_TRUE(r.decision);
  for (const auto& l : r.labels) {
    ASSERT_TRUE(l.has_value());
    EXPECT_EQ(*l, 0u);
  }
}

TEST(Boruvka, ForestLabels) {
  Rng rng(9);
  const Graph f = random_forest(30, 3, rng);
  const RunResult r = run_boruvka(f, 8);
  EXPECT_FALSE(r.decision);
  const auto labels = component_labels(f);
  for (VertexId v = 0; v < 30; ++v) EXPECT_EQ(*r.labels[v], labels[v]);
}

}  // namespace
}  // namespace bcclb
