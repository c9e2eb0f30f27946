// Tests for ℓ0-samplers, AGM graph sketches and sketch-based connectivity.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bcc/algorithms/sketch_connectivity.h"
#include "common/random.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "sketch/graph_sketch.h"
#include "sketch/l0_sampler.h"

namespace bcclb {
namespace {

TEST(L0Sampler, RecoversSingleton) {
  for (std::uint64_t idx : {0ULL, 7ULL, 999ULL}) {
    L0Sampler s({1000, 42, 0});
    s.update(idx, 1);
    const auto got = s.sample();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, idx);
  }
}

TEST(L0Sampler, ZeroVectorSamplesNothing) {
  L0Sampler s({100, 1, 0});
  EXPECT_TRUE(s.appears_zero());
  EXPECT_FALSE(s.sample().has_value());
  s.update(5, 1);
  s.update(5, -1);
  EXPECT_TRUE(s.appears_zero());
  EXPECT_FALSE(s.sample().has_value());
}

TEST(L0Sampler, CancellationLeavesSurvivor) {
  L0Sampler s({100, 3, 0});
  s.update(10, 1);
  s.update(20, 1);
  s.update(10, -1);
  const auto got = s.sample();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 20u);
}

TEST(L0Sampler, MergeEqualsBatchedUpdates) {
  L0Sampler a({500, 9, 2}), b({500, 9, 2}), both({500, 9, 2});
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t idx = rng.next_below(500);
    const std::int64_t delta = rng.next_bool() ? 1 : -1;
    (i % 2 ? a : b).update(idx, delta);
    both.update(idx, delta);
  }
  a.merge(b);
  EXPECT_EQ(a.serialize(), both.serialize());
}

TEST(L0Sampler, MergeRejectsMismatchedParams) {
  L0Sampler a({100, 1, 0}), b({100, 1, 1}), c({100, 2, 0});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(L0Sampler, SampleSucceedsOnVariedSupports) {
  // Across copies, samples succeed on most supports and always return a true
  // support element.
  int successes = 0;
  const int trials = 60;
  Rng rng(11);
  for (int t = 0; t < trials; ++t) {
    L0Sampler s({4096, 77, static_cast<std::uint32_t>(t)});
    std::set<std::uint64_t> support;
    const int size = 1 + static_cast<int>(rng.next_below(200));
    while (static_cast<int>(support.size()) < size) support.insert(rng.next_below(4096));
    for (std::uint64_t idx : support) s.update(idx, 1);
    const auto got = s.sample();
    if (got) {
      ++successes;
      EXPECT_TRUE(support.count(*got)) << "returned a non-support index";
    }
  }
  EXPECT_GT(successes, trials / 2);
}

TEST(L0Sampler, SerializeRoundTrip) {
  L0Sampler s({256, 13, 1});
  s.update(3, 1);
  s.update(100, -1);
  s.update(200, 1);
  const auto words = s.serialize();
  std::size_t at = 0;
  const L0Sampler back = L0Sampler::deserialize({256, 13, 1}, words, at);
  EXPECT_EQ(at, words.size());
  EXPECT_EQ(back.serialize(), words);
  EXPECT_EQ(back.sample(), s.sample());
}

TEST(GraphSketch, ComponentMergeSamplesBoundaryEdge) {
  // Path 0-1-2-3-4-5; merge sketches of {0,1,2}: boundary is exactly {2,3}.
  const Graph g = path_graph(6);
  const std::uint64_t seed = 99;
  const unsigned copies = 6;
  std::vector<GraphSketch> vs;
  for (VertexId v = 0; v < 6; ++v) {
    vs.push_back(GraphSketch::of_vertex(6, v, g.neighbors(v), seed, copies));
  }
  GraphSketch comp = vs[0];
  comp.merge(vs[1]);
  comp.merge(vs[2]);
  bool found = false;
  for (unsigned k = 0; k < copies && !found; ++k) {
    const auto e = comp.sample_edge(k);
    if (e) {
      EXPECT_EQ(*e, Edge(2, 3));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GraphSketch, WholeGraphSketchIsZero) {
  // Summing all vertices cancels every edge.
  Rng rng(4);
  const Graph g = random_gnp(10, 0.4, rng);
  GraphSketch total(10, 5, 3);
  for (VertexId v = 0; v < 10; ++v) {
    total.merge(GraphSketch::of_vertex(10, v, g.neighbors(v), 5, 3));
  }
  for (unsigned k = 0; k < 3; ++k) {
    EXPECT_FALSE(total.sample_edge(k).has_value());
  }
}

TEST(GraphSketch, SerializeRoundTrip) {
  const Graph g = path_graph(5);
  const GraphSketch s = GraphSketch::of_vertex(5, 2, g.neighbors(2), 7, 4);
  const auto words = s.serialize();
  const GraphSketch back = GraphSketch::deserialize(5, 7, 4, words);
  EXPECT_EQ(back.serialize(), words);
}

class SketchConnectivitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SketchConnectivitySweep, HighSuccessRateOverSeeds) {
  const std::size_t n = GetParam();
  int correct = 0;
  const int trials = 12;
  RoundEngine engine;
  for (int t = 0; t < trials; ++t) {
    Rng rng(1000 * n + t);
    const Graph g = (t % 2 == 0) ? random_one_cycle(n, rng).to_graph()
                                 : random_two_cycle(n, rng).to_graph();
    const bool truly = (t % 2 == 0);
    const BccInstance inst = BccInstance::kt1(g);
    const PublicCoins coins(7000 + 13 * t, 4096);
    const RunResult r = engine.run(inst, 16, sketch_connectivity_factory(),
                                   SketchConnectivityAlgorithm::max_rounds(n, 16),
                                   CoinSpec::public_coins(&coins));
    EXPECT_TRUE(r.all_finished);
    if (r.decision == truly) ++correct;
  }
  // Monte Carlo: allow a small number of failures.
  EXPECT_GE(correct, trials - 2) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SketchConnectivitySweep, ::testing::Values(8, 12, 16, 24));

TEST(SketchConnectivity, AllVerticesAgreeOnLabels) {
  Rng rng(21);
  const Graph g = random_two_cycle(14, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  const PublicCoins coins(5, 4096);
  RoundEngine engine;
  const RunResult r =
      engine.run(inst, 16, sketch_connectivity_factory(),
                 SketchConnectivityAlgorithm::max_rounds(14, 16), CoinSpec::public_coins(&coins));
  // Labels must be internally consistent: same component -> same label.
  const auto truth = component_labels(g);
  std::map<VertexId, std::uint64_t> label_of_comp;
  for (VertexId v = 0; v < 14; ++v) {
    ASSERT_TRUE(r.labels[v].has_value());
    const auto [it, inserted] = label_of_comp.emplace(truth[v], *r.labels[v]);
    if (!inserted) {
      EXPECT_EQ(it->second, *r.labels[v]);
    }
  }
}

TEST(SketchConnectivity, PrivateCoinsBreakTheSharedSketches) {
  // The AGM construction needs PUBLIC coins: with private streams the
  // vertices build incompatible hash functions and the merged "component
  // sketches" are garbage. The Monte Carlo guarantee must visibly fail.
  int correct = 0;
  const int trials = 10;
  RoundEngine engine;
  for (int t = 0; t < trials; ++t) {
    Rng rng(500 + t);
    const Graph g = (t % 2 == 0) ? random_one_cycle(12, rng).to_graph()
                                 : random_two_cycle(12, rng).to_graph();
    const RunResult r = engine.run(BccInstance::kt1(g), 16, sketch_connectivity_factory(),
                                   SketchConnectivityAlgorithm::max_rounds(12, 16),
                                   CoinSpec::private_coins(900 + t));
    if (r.all_finished && r.decision == (t % 2 == 0)) ++correct;
  }
  // With working sketches this would be >= 8/10 (as the public-coin sweep
  // shows); broken sketches cannot reach that reliability.
  EXPECT_LT(correct, 8);
}

TEST(SketchConnectivity, NeedsCoins) {
  const Graph g = path_graph(6);
  const BccInstance inst = BccInstance::kt1(g);
  RoundEngine engine;
  EXPECT_THROW(engine.run(inst, 16, sketch_connectivity_factory(), 100), std::invalid_argument);
}

}  // namespace
}  // namespace bcclb
