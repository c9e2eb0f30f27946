// Tests for the Section 4.3 two-party simulation of KT-1 BCC algorithms.
#include <gtest/gtest.h>

#include "bcc/algorithms/boruvka.h"
#include "bcc/algorithms/min_id_flood.h"
#include "common/random.h"
#include "core/kt1_engine.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "partition/enumeration.h"
#include "partition/pair_partition.h"
#include "partition/sampling.h"

namespace bcclb {
namespace {

TEST(Kt1Simulation, MatchesDirectSimulatorRun) {
  Rng rng(1);
  RoundEngine engine;
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_gnp(10, 0.2, rng);
    const BccInstance inst = BccInstance::kt1(g);
    const unsigned b = 8;

    const RunResult want =
        engine.run(inst, b, boruvka_factory(), BoruvkaAlgorithm::max_rounds(10, b));

    const auto sim = simulate_kt1_two_party(
        inst, [](VertexId v) { return v < 5; }, boruvka_factory(), b,
        BoruvkaAlgorithm::max_rounds(10, b) + 2);
    EXPECT_EQ(sim.decision, want.decision) << "trial " << trial;
    for (VertexId v = 0; v < 10; ++v) {
      EXPECT_EQ(sim.labels[v], want.labels[v]) << "trial " << trial << " v " << v;
    }
  }
}

TEST(Kt1Simulation, CommunicationIsLinearPerRound) {
  Rng rng(2);
  const Graph g = random_one_cycle(12, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  const unsigned b = 8;
  const auto sim = simulate_kt1_two_party(
      inst, [](VertexId v) { return v % 2 == 0; }, boruvka_factory(), b, 200);
  // Each party ships 6 vertices * (b+1) bits + 1 flag per round.
  EXPECT_EQ(sim.bits_per_round, 6u * 15u + 1u);  // 6 vertices * (7 + b) bits + flag
  EXPECT_EQ(sim.comm.total_bits(), 2u * sim.bits_per_round * sim.comm.rounds);
}

TEST(Kt1Simulation, RequiresKt1Mode) {
  Rng rng(3);
  const Graph g = random_one_cycle(8, rng).to_graph();
  const BccInstance inst = BccInstance::random_kt0(g, rng);
  EXPECT_THROW(simulate_kt1_two_party(
                   inst, [](VertexId v) { return v < 4; }, boruvka_factory(), 8, 100),
               std::invalid_argument);
}

TEST(Kt1Simulation, BothPartiesMustHostSomething) {
  Rng rng(4);
  const Graph g = random_one_cycle(8, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  EXPECT_THROW(simulate_kt1_two_party(
                   inst, [](VertexId) { return true; }, boruvka_factory(), 8, 100),
               std::invalid_argument);
}

TEST(PartitionViaBcc, ExhaustiveSmallGroundWithBoruvka) {
  const auto parts = all_partitions(3);
  for (const auto& pa : parts) {
    for (const auto& pb : parts) {
      const auto out = solve_partition_via_bcc(pa, pb, boruvka_factory(), 8, 200);
      EXPECT_EQ(out.sim.decision, out.expected_join_is_one)
          << pa.to_string() << " vs " << pb.to_string();
      ASSERT_TRUE(out.recovered_join.has_value());
      EXPECT_EQ(*out.recovered_join, out.expected_join);
    }
  }
}

TEST(PartitionViaBcc, RandomSweepWithFlood) {
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const SetPartition pa = uniform_partition(6, rng);
    const SetPartition pb = uniform_partition(6, rng);
    // 24 vertices: flooding needs 24 rounds and IDs fit 5 bits.
    const auto out = solve_partition_via_bcc(pa, pb, min_id_flood_factory(), 8, 40);
    EXPECT_EQ(out.sim.decision, out.expected_join_is_one);
    ASSERT_TRUE(out.recovered_join.has_value());
    EXPECT_EQ(*out.recovered_join, out.expected_join);
  }
}

TEST(TwoPartitionViaBcc, ExhaustiveMatchingsOnFourElements) {
  const auto matchings = all_perfect_matchings(4);
  ASSERT_EQ(matchings.size(), 3u);
  for (const auto& pa : matchings) {
    for (const auto& pb : matchings) {
      const auto out = solve_two_partition_via_bcc(pa, pb, boruvka_factory(), 8, 200);
      EXPECT_EQ(out.sim.decision, out.expected_join_is_one);
      ASSERT_TRUE(out.recovered_join.has_value());
      EXPECT_EQ(*out.recovered_join, out.expected_join);
    }
  }
}

TEST(TwoPartitionViaBcc, RandomMatchingsSweep) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const SetPartition pa = random_perfect_matching(8, rng);
    const SetPartition pb = random_perfect_matching(8, rng);
    const auto out = solve_two_partition_via_bcc(pa, pb, boruvka_factory(), 8, 200);
    EXPECT_EQ(out.sim.decision, out.expected_join_is_one) << "trial " << trial;
    EXPECT_EQ(*out.recovered_join, out.expected_join);
  }
}

TEST(PartitionViaBcc, RoundsTimesBitsBeatTheLowerBoundStory) {
  // The Theorem 4.4 accounting: a t-round algorithm yields a protocol with
  // O(t * n) bits. Verify total bits == rounds * 2 * bits_per_round and that
  // Boruvka's t stays logarithmic, so the measured protocol is Θ(n log n) —
  // consistent with (not below) the Ω(n log n) communication bound.
  Rng rng(7);
  const SetPartition pa = uniform_partition(10, rng);
  const SetPartition pb = uniform_partition(10, rng);
  const auto out = solve_partition_via_bcc(pa, pb, boruvka_factory(), 8, 400);
  EXPECT_EQ(out.sim.comm.total_bits(),
            2 * out.sim.bits_per_round * static_cast<std::uint64_t>(out.sim.comm.rounds));
  EXPECT_LE(out.sim.bcc_rounds, 20u);  // ~log2(40) phases
}

}  // namespace
}  // namespace bcclb
