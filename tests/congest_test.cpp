// Tests for the CONGEST substrate and triangle detection ([Fis+18] context).
#include <gtest/gtest.h>

#include "common/random.h"
#include "congest/bfs.h"
#include "congest/model.h"
#include "congest/triangle.h"
#include "fixtures.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

CongestRunResult detect(const Graph& g, unsigned b) {
  CongestSimulator sim(g, b);
  std::size_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) max_deg = std::max(max_deg, g.degree(v));
  return sim.run(triangle_detection_factory(),
                 TriangleDetection::rounds_needed(g.num_vertices(), max_deg, b) + 2);
}

TEST(Congest, MessagesOnlyTravelAlongEdges) {
  // A counting algorithm: each vertex tallies the non-silent messages it
  // receives; on a path, interior vertices hear 2, endpoints 1.
  class Counter final : public CongestAlgorithm {
   public:
    void init(const CongestView& view) override { deg_ = view.neighbor_ids.size(); }
    std::vector<Message> send(unsigned) override {
      return std::vector<Message>(deg_, Message::one_bit(true));
    }
    void receive(unsigned, std::span<const Message> inbox) override {
      heard_ = 0;
      for (const Message& m : inbox) {
        if (!m.is_silent()) ++heard_;
      }
      done_ = true;
    }
    bool finished() const override { return done_; }
    bool decide() const override { return true; }
    std::size_t heard() const { return heard_; }

   private:
    std::size_t deg_ = 0, heard_ = 0;
    bool done_ = false;
  };
  CongestSimulator sim(path_graph(5), 1);
  const auto res = sim.run([] { return std::make_unique<Counter>(); }, 2);
  EXPECT_TRUE(res.all_finished);
  // Bits: each vertex sends deg bits in round 1 = 2*|E| = 8 bits.
  EXPECT_EQ(res.total_bits_sent, 8u);
}

TEST(Congest, BandwidthEnforced) {
  class Wide final : public CongestAlgorithm {
   public:
    void init(const CongestView& view) override { deg_ = view.neighbor_ids.size(); }
    std::vector<Message> send(unsigned) override {
      return std::vector<Message>(deg_, Message::bits(7, 3));
    }
    void receive(unsigned, std::span<const Message>) override {}
    bool finished() const override { return false; }
    bool decide() const override { return true; }

   private:
    std::size_t deg_ = 0;
  };
  CongestSimulator sim(path_graph(3), 2);
  EXPECT_THROW(sim.run([] { return std::make_unique<Wide>(); }, 1), std::invalid_argument);
}

TEST(Congest, OutboxSizeValidated) {
  class Short final : public CongestAlgorithm {
   public:
    void init(const CongestView&) override {}
    std::vector<Message> send(unsigned) override { return {}; }
    void receive(unsigned, std::span<const Message>) override {}
    bool finished() const override { return false; }
    bool decide() const override { return true; }
  };
  CongestSimulator sim(path_graph(3), 1);
  EXPECT_THROW(sim.run([] { return std::make_unique<Short>(); }, 1), std::invalid_argument);
}

TEST(Triangle, BruteForceReference) {
  Graph tri(3);
  tri.add_edge(0, 1);
  tri.add_edge(1, 2);
  tri.add_edge(2, 0);
  EXPECT_TRUE(has_triangle(tri));
  EXPECT_FALSE(has_triangle(path_graph(5)));
  Rng rng(1);
  EXPECT_FALSE(has_triangle(random_one_cycle(8, rng).to_graph()));
}

class TriangleSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TriangleSweep, MatchesBruteForceAcrossDensities) {
  const unsigned b = GetParam();
  Rng rng(b * 100 + 7);
  for (int trial = 0; trial < 12; ++trial) {
    const double p = 0.05 + 0.03 * trial;
    const Graph g = random_gnp(14, p, rng);
    const auto res = detect(g, b);
    EXPECT_TRUE(res.all_finished);
    // decide() convention: system true iff triangle-free.
    EXPECT_EQ(res.decision, !has_triangle(g)) << "b=" << b << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, TriangleSweep, ::testing::Values(1u, 2u, 8u));

TEST(Triangle, CyclesAreTriangleFreeUnlessLength3) {
  Rng rng(5);
  const auto c3 = CycleStructure::from_cycles(3, {{0, 1, 2}});
  EXPECT_FALSE(detect(c3.to_graph(), 2).decision);  // triangle present
  const auto c9 = random_one_cycle(9, rng);
  EXPECT_TRUE(detect(c9.to_graph(), 2).decision);
}

TEST(Triangle, RoundsScaleWithDegreeAndBandwidth) {
  // Constant-degree inputs at b = 1 need Θ(log n) rounds — the [Fis+18]
  // regime; higher bandwidth divides rounds.
  Rng rng(9);
  const Graph cyc = random_one_cycle(32, rng).to_graph();  // Δ = 2
  const auto r1 = detect(cyc, 1);
  const auto r5 = detect(cyc, 5);
  EXPECT_LE(r1.rounds_executed, TriangleDetection::rounds_needed(32, 2, 1) + 2);
  EXPECT_GT(r1.rounds_executed, r5.rounds_executed);
  EXPECT_GE(r1.rounds_executed, 15u);  // 3 entries * 5 bits at b = 1
}

TEST(Triangle, DisconnectedAndIsolatedVertices) {
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // triangle in one component, vertices 3..6 isolated
  const auto res = detect(g, 2);
  EXPECT_TRUE(res.all_finished);
  EXPECT_FALSE(res.decision);
}

// ---- BFS ([HP15] distances context) -----------------------------------------

TEST(CongestBfs, DistancesMatchReference) {
  Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = random_gnp(20, 0.12, rng);
    const BfsRun out = run_congest_bfs(g, 0);
    const auto want = reference_distances(g, 0);
    for (VertexId v = 0; v < 20; ++v) {
      EXPECT_EQ(out.distances[v], want[v]) << "trial " << trial << " v " << v;
    }
  }
}

TEST(CongestBfs, RoundsEqualEccentricityPlusOne) {
  // On a path from the left end, ecc = n-1 and the run takes ecc + 1 rounds.
  const std::size_t n = 12;
  const BfsRun out = run_congest_bfs(path_graph(n), 0);
  EXPECT_EQ(out.eccentricity, n - 1);
  EXPECT_EQ(out.run.rounds_executed, n);
  EXPECT_TRUE(out.run.decision);  // connected: everyone reached
}

TEST(CongestBfs, CycleEccentricityIsHalf) {
  Rng rng(32);
  const BfsRun out = run_congest_bfs(random_one_cycle(16, rng).to_graph(), 0);
  EXPECT_EQ(out.eccentricity, 8u);
}

TEST(CongestBfs, DisconnectedLeavesUnreached) {
  Rng rng(33);
  const Graph g = random_two_cycle(12, rng).to_graph();
  const BfsRun out = run_congest_bfs(g, 0);
  EXPECT_FALSE(out.run.decision);
  std::size_t unreached = 0;
  for (const auto& d : out.distances) {
    if (!d.has_value()) ++unreached;
  }
  EXPECT_GE(unreached, 3u);  // the other cycle has length >= 3
}

TEST(CongestBfs, SourceValidation) {
  EXPECT_THROW(run_congest_bfs(path_graph(4), 9), std::invalid_argument);
}

}  // namespace
}  // namespace bcclb
