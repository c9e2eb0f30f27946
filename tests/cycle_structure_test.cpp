// Tests for cycle covers, canonical forms, enumeration and the
// structure-level crossing operation (Definition 3.3's input-graph effect).
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/random.h"
#include "fixtures.h"
#include "graph/components.h"
#include "graph/cycle_structure.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

CycleStructure canon_cycle(std::initializer_list<VertexId> order) {
  std::vector<VertexId> v(order);
  return CycleStructure::single_cycle(v);
}

TEST(CycleStructure, CanonicalizationIsRotationAndReflectionInvariant) {
  const auto a = canon_cycle({0, 1, 2, 3, 4});
  const auto b = canon_cycle({2, 3, 4, 0, 1});
  const auto c = canon_cycle({0, 4, 3, 2, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.key(), c.key());
}

TEST(CycleStructure, DistinctOrdersDiffer) {
  EXPECT_NE(canon_cycle({0, 1, 2, 3, 4}), canon_cycle({0, 2, 1, 3, 4}));
}

TEST(CycleStructure, SingleCycleValidation) {
  std::vector<VertexId> bad{0, 1, 1};
  EXPECT_THROW(CycleStructure::single_cycle(bad), std::invalid_argument);
  std::vector<VertexId> tooshort{0, 1};
  EXPECT_THROW(CycleStructure::single_cycle(tooshort), std::invalid_argument);
}

TEST(CycleStructure, FromGraphRoundTrip) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    // Three cycles of lengths 3, 5 and 7 over a random permutation of [15].
    std::vector<VertexId> perm(15);
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    const auto at = [&](std::size_t k) { return perm.begin() + static_cast<std::ptrdiff_t>(k); };
    const auto cs = CycleStructure::from_cycles(
        15, {{at(0), at(3)}, {at(3), at(8)}, {at(8), perm.end()}});
    EXPECT_EQ(CycleStructure::from_graph(cs.to_graph()), cs);
  }
}

TEST(CycleStructure, FromGraphRejectsNonRegular) {
  EXPECT_THROW(CycleStructure::from_graph(path_graph(5)), std::invalid_argument);
}

TEST(CycleStructure, FromCyclesValidates) {
  EXPECT_THROW(CycleStructure::from_cycles(6, {{0, 1, 2}, {3, 4}}), std::invalid_argument);
  EXPECT_THROW(CycleStructure::from_cycles(6, {{0, 1, 2}, {2, 3, 4}}), std::invalid_argument);
  EXPECT_THROW(CycleStructure::from_cycles(7, {{0, 1, 2}, {3, 4, 5}}), std::invalid_argument);
}

TEST(CycleStructure, DirectedEdgesFollowCanonicalTraversal) {
  const auto cs = canon_cycle({0, 1, 2, 3});
  const auto edges = cs.directed_edges();
  ASSERT_EQ(edges.size(), 4u);
  // Canonical: starts at 0, second element is min(1, 3) = 1.
  EXPECT_EQ(edges[0], (DirectedEdge{0, 1}));
  EXPECT_EQ(edges[3], (DirectedEdge{3, 0}));
}

TEST(CycleStructure, IndependenceDefinition) {
  const auto cs = canon_cycle({0, 1, 2, 3, 4, 5});
  // Sharing a vertex: dependent.
  EXPECT_FALSE(cs.edges_independent({0, 1}, {1, 2}));
  // (0,1) and (2,3): candidate new edges (0,3) and (2,1) — (1,2) is an input
  // edge, so dependent.
  EXPECT_FALSE(cs.edges_independent({0, 1}, {2, 3}));
  // (0,1) and (3,4): new edges (0,4), (3,1) — neither exists. Independent.
  EXPECT_TRUE(cs.edges_independent({0, 1}, {3, 4}));
}

TEST(CycleStructure, CrossingSameCycleSplitsInTwo) {
  const auto cs = canon_cycle({0, 1, 2, 3, 4, 5, 6, 7});
  const auto crossed = cs.crossed({0, 1}, {4, 5});
  EXPECT_TRUE(crossed.is_two_cycle());
  // 0-1...4-5 crossing: cycles {0,5,6,7} and {1,2,3,4}.
  const Graph g = crossed.to_graph();
  EXPECT_TRUE(g.has_edge(0, 5));
  EXPECT_TRUE(g.has_edge(4, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(4, 5));
  EXPECT_EQ(num_components(g), 2u);
}

TEST(CycleStructure, CrossingDifferentCyclesMerges) {
  const auto cs = CycleStructure::from_cycles(8, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  const auto edges = cs.directed_edges();
  // Pick one clockwise edge from each cycle.
  DirectedEdge e1{0, 0}, e2{0, 0};
  bool got1 = false, got2 = false;
  for (const auto& e : edges) {
    if (!got1 && e.tail <= 3 && e.head <= 3) {
      e1 = e;
      got1 = true;
    } else if (!got2 && e.tail >= 4) {
      e2 = e;
      got2 = true;
    }
  }
  ASSERT_TRUE(got1 && got2);
  ASSERT_TRUE(cs.edges_independent(e1, e2));
  EXPECT_TRUE(cs.crossed(e1, e2).is_one_cycle());
}

TEST(CycleStructure, CrossingRequiresClockwiseInputEdges) {
  const auto cs = canon_cycle({0, 1, 2, 3, 4, 5});
  // (1,0) is the input edge with the wrong orientation.
  EXPECT_THROW(cs.crossed({1, 0}, {3, 4}), std::invalid_argument);
  // (0,2) is not an input edge at all.
  EXPECT_THROW(cs.crossed({0, 2}, {3, 4}), std::invalid_argument);
  // Dependent pair.
  EXPECT_THROW(cs.crossed({0, 1}, {1, 2}), std::invalid_argument);
}

TEST(CycleStructure, SmallestCycleLength) {
  const auto cs = CycleStructure::from_cycles(9, {{0, 1, 2}, {3, 4, 5, 6, 7, 8}});
  EXPECT_EQ(cs.smallest_cycle_length(), 3u);
  EXPECT_EQ(cs.num_cycles(), 2u);
}

class EnumerationCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnumerationCount, OneCycleCountIsHalfFactorial) {
  const std::size_t n = GetParam();
  std::uint64_t expect = 1;
  for (std::uint64_t k = 2; k < n; ++k) expect *= k;
  expect /= 2;
  const auto v1 = all_one_cycle_structures(n);
  EXPECT_EQ(v1.size(), expect);
  // All distinct.
  std::set<std::string> keys;
  for (const auto& cs : v1) keys.insert(cs.key());
  EXPECT_EQ(keys.size(), v1.size());
}

TEST_P(EnumerationCount, TwoCycleCountMatchesDirectFormula) {
  const std::size_t n = GetParam();
  // Sum over the size i of the cycle containing vertex 0 (3 <= i <= n-3):
  // C(n-1, i-1) * (i-1)!/2 * (n-i-1)!/2.
  auto fact = [](std::size_t k) {
    double f = 1;
    for (std::size_t j = 2; j <= k; ++j) f *= static_cast<double>(j);
    return f;
  };
  double expect = 0;
  for (std::size_t i = 3; i + 3 <= n; ++i) {
    const double choose = fact(n - 1) / (fact(i - 1) * fact(n - i));
    const double ca = i == 3 ? 1 : fact(i - 1) / 2;
    const double cb = (n - i) == 3 ? 1 : fact(n - i - 1) / 2;
    expect += choose * ca * cb;
  }
  const auto v2 = all_two_cycle_structures(n);
  EXPECT_EQ(static_cast<double>(v2.size()), expect);
  for (const auto& cs : v2) {
    EXPECT_TRUE(cs.is_two_cycle());
    EXPECT_GE(cs.smallest_cycle_length(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallN, EnumerationCount, ::testing::Values(6, 7, 8, 9));

TEST(Enumeration, CycleCoversGeneralizeOneAndTwo) {
  const auto all = all_cycle_covers(9, 3, 1, 3);
  const auto ones = all_one_cycle_structures(9);
  const auto twos = all_two_cycle_structures(9);
  std::size_t three_plus = 0;
  for (const auto& cs : all) {
    if (cs.num_cycles() == 3) ++three_plus;
  }
  EXPECT_EQ(all.size(), ones.size() + twos.size() + three_plus);
  EXPECT_GT(three_plus, 0u);
}

TEST(Enumeration, MinLenFourCoversForMultiCycle) {
  // MultiCycle instances: every cycle has length >= 4.
  const auto covers = all_cycle_covers(8, 4, 2, 2);
  for (const auto& cs : covers) {
    EXPECT_EQ(cs.num_cycles(), 2u);
    EXPECT_GE(cs.smallest_cycle_length(), 4u);
  }
  // Splits of 8 into two parts >= 4: only 4+4. Count = C(7,3)*3*3 = 315.
  EXPECT_EQ(covers.size(), 315u);
}

TEST(CycleStructure, CrossingMatchesPortLevelStructure) {
  // Structure-level crossing agrees with re-extracting from edge surgery.
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const auto cs = random_one_cycle(10, rng);
    const auto edges = cs.directed_edges();
    bool done = false;
    for (std::size_t a = 0; a < edges.size() && !done; ++a) {
      for (std::size_t b = a + 1; b < edges.size() && !done; ++b) {
        if (!cs.edges_independent(edges[a], edges[b])) continue;
        const auto crossed = cs.crossed(edges[a], edges[b]);
        EXPECT_TRUE(crossed.is_two_cycle());
        // Crossing preserves the number of vertices and 2-regularity.
        EXPECT_EQ(crossed.num_vertices(), 10u);
        EXPECT_TRUE(crossed.to_graph().is_regular(2));
        done = true;
      }
    }
    EXPECT_TRUE(done);
  }
}

}  // namespace
}  // namespace bcclb
