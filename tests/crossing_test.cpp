// Tests for port-preserving crossings (Definition 3.3 / Figure 1 /
// Lemma 3.4), the indistinguishability graph (Definition 3.6, Lemmas
// 3.7-3.9) and the matching machinery (Theorem 2.1).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "bcc/algorithms/two_cycle_adversaries.h"
#include "bcc/round_engine.h"
#include "common/mathutil.h"
#include "common/random.h"
#include "crossing/active_edges.h"
#include "crossing/crossing.h"
#include "crossing/indistinguishability_graph.h"
#include "crossing/matching.h"
#include "crossing/ported_instance.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

// Two independent clockwise edges of a structure, or fails the test.
std::pair<DirectedEdge, DirectedEdge> pick_independent(const CycleStructure& cs) {
  const auto edges = cs.directed_edges();
  for (std::size_t a = 0; a < edges.size(); ++a) {
    for (std::size_t b = a + 1; b < edges.size(); ++b) {
      if (cs.edges_independent(edges[a], edges[b])) return {edges[a], edges[b]};
    }
  }
  throw std::logic_error("no independent pair");
}

TEST(Crossing, PreservesEveryLocalPortView) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cs = random_one_cycle(9, rng);
    const BccInstance inst = random_kt0_instance(cs, rng);
    const auto [e1, e2] = pick_independent(cs);
    const BccInstance crossed = port_preserving_crossing(inst, e1, e2);
    // The defining property: every vertex sees identical input ports.
    for (VertexId v = 0; v < 9; ++v) {
      EXPECT_EQ(inst.input_ports(v), crossed.input_ports(v)) << "vertex " << v;
    }
  }
}

TEST(Crossing, ChangesInputGraphAsSpecified) {
  Rng rng(2);
  const auto cs = random_one_cycle(8, rng);
  const BccInstance inst = canonical_kt0_instance(cs);
  const auto [e1, e2] = pick_independent(cs);
  const BccInstance crossed = port_preserving_crossing(inst, e1, e2);
  EXPECT_FALSE(crossed.input().has_edge(e1.tail, e1.head));
  EXPECT_FALSE(crossed.input().has_edge(e2.tail, e2.head));
  EXPECT_TRUE(crossed.input().has_edge(e1.tail, e2.head));
  EXPECT_TRUE(crossed.input().has_edge(e2.tail, e1.head));
  EXPECT_EQ(num_components(crossed.input()), 2u);
}

TEST(Crossing, AgreesWithStructureLevelCrossing) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cs = random_one_cycle(10, rng);
    const BccInstance inst = canonical_kt0_instance(cs);
    const auto [e1, e2] = pick_independent(cs);
    const BccInstance crossed = port_preserving_crossing(inst, e1, e2);
    EXPECT_EQ(CycleStructure::from_graph(crossed.input()), cs.crossed(e1, e2));
  }
}

TEST(Crossing, IsAnInvolutionOnTheInstance) {
  // Crossing the new pair (v1,u2), (v2,u1) back restores the original.
  Rng rng(4);
  const auto cs = random_one_cycle(8, rng);
  const BccInstance inst = random_kt0_instance(cs, rng);
  const auto [e1, e2] = pick_independent(cs);
  const BccInstance crossed = port_preserving_crossing(inst, e1, e2);
  const BccInstance back =
      port_preserving_crossing(crossed, {e1.tail, e2.head}, {e2.tail, e1.head});
  EXPECT_TRUE(back.input() == inst.input());
  EXPECT_EQ(back.wiring(), inst.wiring());
}

TEST(Crossing, RejectsDependentOrNonInputEdges) {
  Rng rng(5);
  const auto cs = random_one_cycle(8, rng);
  const BccInstance inst = canonical_kt0_instance(cs);
  const auto edges = cs.directed_edges();
  EXPECT_THROW(port_preserving_crossing(inst, edges[0], edges[1]), std::invalid_argument);
  EXPECT_FALSE(instance_edges_independent(inst, edges[0], edges[1]));
}

TEST(Crossing, Kt1KnowledgeDefeatsCrossings) {
  // Section 1.1/4: "in KT-1 it is no longer possible to play edge-crossing
  // tricks". The crossing preserves port views but not the IDs behind the
  // ports — a KT-1 vertex sees the difference at round 0.
  Rng rng(41);
  const auto cs = random_one_cycle(9, rng);
  const BccInstance kt1(Wiring::kt1(9), cs.to_graph(), KnowledgeMode::kKT1);
  const auto [e1, e2] = pick_independent(cs);
  const BccInstance crossed = port_preserving_crossing(kt1, e1, e2);
  const auto factory =
      two_cycle_adversary_factory(AdversaryKind::kSilent, 0, always_yes_rule());
  RoundEngine engine;
  const Transcript t1 = engine.run(kt1, 1, factory, 0).transcript;
  const Transcript t2 = engine.run(crossed, 1, factory, 0).transcript;
  std::size_t distinguishing = 0;
  for (VertexId v = 0; v < 9; ++v) {
    if (vertex_state_signature(kt1, t1, v) != vertex_state_signature(crossed, t2, v)) {
      ++distinguishing;
    }
  }
  // All four corner vertices see new IDs behind their ports immediately.
  EXPECT_EQ(distinguishing, 4u);
}

// ---- Lemma 3.4: indistinguishability ---------------------------------------

class Lemma34 : public ::testing::TestWithParam<AdversaryKind> {};

TEST_P(Lemma34, EqualEndpointSequencesImplyIndistinguishability) {
  const AdversaryKind kind = GetParam();
  Rng rng(11);
  const PublicCoins coins(3, 1024);
  // t = 2 keeps the ID-bit label alphabet small (ID mod 4), so same-label
  // independent pairs exist in most random 16-cycles.
  const unsigned t = 2;
  int verified = 0;
  RoundEngine engine;
  for (int trial = 0; trial < 40; ++trial) {
    const auto cs = random_one_cycle(16, rng);
    const BccInstance inst = random_kt0_instance(cs, rng);
    const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
    const Transcript tr =
        engine.run(inst, 1, factory, t, CoinSpec::public_coins(&coins)).transcript;

    // Find an independent pair whose tails broadcast the same sequence and
    // whose heads broadcast the same sequence.
    const auto edges = cs.directed_edges();
    for (std::size_t a = 0; a < edges.size(); ++a) {
      for (std::size_t b = a + 1; b < edges.size(); ++b) {
        const auto &e1 = edges[a], &e2 = edges[b];
        if (!cs.edges_independent(e1, e2)) continue;
        if (tr.sent_string(e1.tail) != tr.sent_string(e2.tail)) continue;
        if (tr.sent_string(e1.head) != tr.sent_string(e2.head)) continue;
        const BccInstance crossed = port_preserving_crossing(inst, e1, e2);
        const Transcript tr2 =
            engine.run(crossed, 1, factory, t, CoinSpec::public_coins(&coins)).transcript;
        for (VertexId v = 0; v < 16; ++v) {
          EXPECT_EQ(vertex_state_signature(inst, tr, v),
                    vertex_state_signature(crossed, tr2, v))
              << adversary_kind_name(kind) << " vertex " << v;
        }
        ++verified;
        goto next_trial;
      }
    }
  next_trial:;
  }
  EXPECT_GT(verified, 0) << "no same-label independent pair found in any trial";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Lemma34,
                         ::testing::ValuesIn(all_adversary_kinds()),
                         [](const auto& info) {
                           std::string name = adversary_kind_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Lemma34, DifferentSequencesCanBeDistinguished) {
  // Sanity inverse: with the id-bits adversary, crossing edges whose labels
  // differ generally changes some vertex's received bits.
  Rng rng(13);
  const auto cs = random_one_cycle(8, rng);
  const BccInstance inst = canonical_kt0_instance(cs);
  const auto factory = two_cycle_adversary_factory(AdversaryKind::kIdBits, 3, always_yes_rule());
  RoundEngine engine;
  const Transcript tr = engine.run(inst, 1, factory, 3).transcript;
  bool found_distinguishing = false;
  const auto edges = cs.directed_edges();
  for (std::size_t a = 0; a < edges.size() && !found_distinguishing; ++a) {
    for (std::size_t b = a + 1; b < edges.size() && !found_distinguishing; ++b) {
      const auto &e1 = edges[a], &e2 = edges[b];
      if (!cs.edges_independent(e1, e2)) continue;
      if (tr.sent_string(e1.tail) == tr.sent_string(e2.tail)) continue;
      const BccInstance crossed = port_preserving_crossing(inst, e1, e2);
      const Transcript tr2 = engine.run(crossed, 1, factory, 3).transcript;
      for (VertexId v = 0; v < 8; ++v) {
        if (vertex_state_signature(inst, tr, v) != vertex_state_signature(crossed, tr2, v)) {
          found_distinguishing = true;
        }
      }
    }
  }
  EXPECT_TRUE(found_distinguishing);
}

// ---- Active edges ------------------------------------------------------------

TEST(ActiveEdges, ClassesPartitionAllEdges) {
  Rng rng(17);
  const auto cs = random_one_cycle(9, rng);
  const BccInstance inst = canonical_kt0_instance(cs);
  RoundEngine engine;
  const Transcript tr =
      engine
          .run(inst, 1,
               two_cycle_adversary_factory(AdversaryKind::kHashedId, 2, always_yes_rule()), 2)
          .transcript;
  const auto classes = edge_label_classes(cs, tr);
  std::size_t total = 0;
  for (const auto& c : classes) {
    total += c.edges.size();
    EXPECT_EQ(c.label.size(), 4u);  // 2t characters at t = 2
    for (const auto& e : c.edges) {
      EXPECT_EQ(tr.edge_label(e.tail, e.head), c.label);
    }
  }
  EXPECT_EQ(total, 9u);
  // Sorted largest-first.
  for (std::size_t i = 1; i < classes.size(); ++i) {
    EXPECT_GE(classes[i - 1].edges.size(), classes[i].edges.size());
  }
}

TEST(ActiveEdges, SilentAlgorithmHasOneClass) {
  Rng rng(19);
  const auto cs = random_one_cycle(7, rng);
  const BccInstance inst = canonical_kt0_instance(cs);
  RoundEngine engine;
  const Transcript tr =
      engine
          .run(inst, 1, two_cycle_adversary_factory(AdversaryKind::kSilent, 3, always_yes_rule()),
               3)
          .transcript;
  const auto classes = edge_label_classes(cs, tr);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].label, "______");
  EXPECT_EQ(classes[0].edges.size(), 7u);
}

TEST(ActiveEdges, GreedyIndependentSubsetIsIndependentAndLarge) {
  Rng rng(23);
  const auto cs = random_one_cycle(12, rng);
  const auto all = cs.directed_edges();
  const auto sub = greedy_independent_subset(cs, all);
  for (std::size_t a = 0; a < sub.size(); ++a) {
    for (std::size_t b = a + 1; b < sub.size(); ++b) {
      EXPECT_TRUE(cs.edges_independent(sub[a], sub[b]));
    }
  }
  EXPECT_GE(sub.size(), 12u / 3);  // footnote 3: at least bn/3c
}

// ---- Indistinguishability graph ---------------------------------------------

TEST(IndistGraph, Lemma39SizeRatioTracksHarmonic) {
  for (std::size_t n : {7u, 8u, 9u}) {
    const auto g = build_indistinguishability_graph(n, all_edges_active());
    const double ratio = g.size_ratio();
    const double prediction = harmonic(n / 2) - 1.5;
    // Θ agreement: ratio / prediction within a mild constant band.
    EXPECT_GT(ratio / prediction, 0.4) << "n=" << n;
    EXPECT_LT(ratio / prediction, 2.5) << "n=" << n;
  }
}

TEST(IndistGraph, RoundZeroDegreesMatchClosedForms) {
  const std::size_t n = 8;
  const auto g = build_indistinguishability_graph(n, all_edges_active());
  // One-cycle degree: sum over 3 <= i <= n/2 of the distance-i pairs, i.e.
  // n per i < n/2 plus n/2 at i = n/2 — which equals n(n-5)/2. (The proof
  // sketch of Lemma 3.9 quotes n(n-3)/2; the difference is the two pairs per
  // edge whose only independent pairing re-crosses to another ONE-cycle and
  // therefore contributes no V2 neighbor. Same Θ.)
  for (std::size_t i = 0; i < g.one_cycles.size(); ++i) {
    EXPECT_EQ(g.neighbors(i).size(), n * (n - 5) / 2);
  }
  // Two-cycle with smaller cycle i has degree 2 * i * (n-i): picking one edge
  // from each cycle leaves two reconnecting pairings, each of which is a
  // crossing of a distinct one-cycle parent. (Lemma 3.9's proof counts
  // i(n-i) under its fixed orientation convention — same Θ.)
  const auto degrees = g.two_cycle_degrees();
  for (std::size_t j = 0; j < g.two_cycles.size(); ++j) {
    const std::size_t i = g.two_cycles[j].smallest_cycle_length();
    EXPECT_EQ(degrees[j], 2 * i * (n - i)) << "two-cycle " << j;
  }
}

TEST(IndistGraph, EdgesAreGenuineCrossings) {
  const auto g = build_indistinguishability_graph(7, all_edges_active());
  // Spot-check: every neighbor differs from the one-cycle by exactly 2 edges.
  for (std::size_t i = 0; i < 10; ++i) {
    const Graph gi = g.one_cycles[i].to_graph();
    for (std::uint32_t j : g.neighbors(i)) {
      const Graph gj = g.two_cycles[j].to_graph();
      std::size_t shared = 0;
      for (const Edge& e : gi.edges()) {
        if (gj.has_edge(e.u, e.v)) ++shared;
      }
      EXPECT_EQ(shared, 5u);  // n - 2 shared edges
    }
  }
}

TEST(IndistGraph, Lemma37ProfileMatchesFormula) {
  // With all edges active (d = n), I1 has n neighbors with the smaller
  // cycle's active count equal to i for 3 <= i < n/2 (n/2 pairs when i=n/2).
  const std::size_t n = 8;
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto cs = CycleStructure::single_cycle(order);
  const auto profile = neighbor_degree_profile(cs, all_edges_active());
  EXPECT_EQ(profile.active_edges, n);
  EXPECT_EQ(profile.split_counts[3], n);      // i = 3
  EXPECT_EQ(profile.split_counts[4], n / 2);  // i = n/2: halved
}

// ---- Matching ---------------------------------------------------------------

TEST(Matching, SimpleCases) {
  // Perfect matching on K_{3,3}.
  std::vector<std::vector<std::uint32_t>> k33(3, {0, 1, 2});
  EXPECT_EQ(max_bipartite_matching(k33, 3), 3u);
  // Star: left {0,1,2} all pointing at right 0.
  std::vector<std::vector<std::uint32_t>> star(3, {0});
  EXPECT_EQ(max_bipartite_matching(star, 1), 1u);
  // Empty (spelled as CSR so the overload is unambiguous).
  CsrAdjacency empty;
  empty.offsets = {0, 0, 0};
  EXPECT_EQ(max_bipartite_matching(empty, 4), 0u);
}

TEST(Matching, KMatchingCloning) {
  // Two left nodes, four right nodes, complete: 2-matching saturates.
  std::vector<std::vector<std::uint32_t>> adj(2, {0, 1, 2, 3});
  EXPECT_TRUE(has_saturating_k_matching(adj, 4, 1));
  EXPECT_TRUE(has_saturating_k_matching(adj, 4, 2));
  EXPECT_FALSE(has_saturating_k_matching(adj, 4, 3));
  EXPECT_EQ(max_saturating_k(adj, 4, 10), 2u);
}

TEST(Matching, IsolatedLeftVerticesAreSkipped) {
  std::vector<std::vector<std::uint32_t>> adj{{0}, {}, {1}};
  EXPECT_TRUE(has_saturating_k_matching(adj, 2, 1));
}

TEST(Matching, MatchedPairsAreValid) {
  Rng rng(29);
  std::vector<std::vector<std::uint32_t>> adj(20);
  for (auto& nbrs : adj) {
    for (std::uint32_t r = 0; r < 15; ++r) {
      if (rng.next_bernoulli(0.2)) nbrs.push_back(r);
    }
  }
  HopcroftKarp hk(adj, 15);
  const std::size_t m = hk.max_matching();
  std::set<std::uint32_t> used;
  std::size_t matched = 0;
  for (std::uint32_t l = 0; l < 20; ++l) {
    const std::uint32_t r = hk.match_left()[l];
    if (r == HopcroftKarp::kUnmatched) continue;
    ++matched;
    EXPECT_TRUE(std::find(adj[l].begin(), adj[l].end(), r) != adj[l].end());
    EXPECT_TRUE(used.insert(r).second);
  }
  EXPECT_EQ(matched, m);
}

TEST(Matching, RoundZeroIndistGraphHasLargeMatching) {
  const auto g = build_indistinguishability_graph(8, all_edges_active());
  const std::size_t m = max_bipartite_matching(g.adj, g.two_cycles.size());
  // The smaller side (V2 here at n = 8) should saturate: every two-cycle is
  // reachable by crossing.
  EXPECT_EQ(m, std::min(g.one_cycles.size(), g.two_cycles.size()));
}

}  // namespace
}  // namespace bcclb
