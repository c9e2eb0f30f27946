// The Section 4.3 simulation: Alice and Bob jointly execute a KT-1 BCC(b)
// algorithm on G(PA, PB) through a 2-party protocol.
//
// Alice hosts one half of the vertices and Bob the other; to simulate a
// round each party sends the characters (from {0,1,⊥} generalized to b
// bits) its hosted vertices broadcast, in increasing ID order, so the other
// party can attribute every character to its sender. Each round therefore
// costs O(n·b) bits each way — combining with the Ω(n log n) communication
// bounds of Corollaries 2.4/4.2 yields the Ω(log n) round lower bound of
// Theorem 4.4, and with Theorem 4.5's information bound the randomized
// ConnectedComponents lower bound. This engine runs the simulation
// bit-for-bit and reports the measured communication.
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "bcc/batch_runner.h"
#include "bcc/instance_view.h"
#include "bcc/round_engine.h"
#include "comm/protocol.h"
#include "core/reduction.h"

namespace bcclb {

struct Kt1SimulationResult {
  unsigned bcc_rounds = 0;         // BCC rounds simulated
  bool decision = false;           // AND over all vertices
  std::vector<std::optional<std::uint64_t>> labels;  // per vertex
  ProtocolResult comm;             // measured protocol bits
  std::uint64_t bits_per_round = 0;  // per-party per-round message size

  std::uint64_t total_bits() const { return comm.total_bits(); }
};

// Simulates `factory`'s algorithm on `instance` (must be KT-1) with the
// vertex set split by `alice_hosts`. The simulation is faithful: hosted
// vertices only ever see bits that crossed the protocol or came from
// co-hosted vertices, and the result matches a direct RoundEngine run.
Kt1SimulationResult simulate_kt1_two_party(const BccInstance& instance,
                                           const std::function<bool(VertexId)>& alice_hosts,
                                           const AlgorithmFactory& factory, unsigned bandwidth,
                                           unsigned max_rounds,
                                           const PublicCoins* coins = nullptr);

// View seam: explicit views delegate directly; implicit views materialize
// first (the two-party simulation drives per-vertex algorithms, so it is an
// enumeration-scale experiment — ImplicitInstance::materialize's size
// ceiling applies and the instance must be KT-1).
Kt1SimulationResult simulate_kt1_two_party(const InstanceView& view,
                                           const std::function<bool(VertexId)>& alice_hosts,
                                           const AlgorithmFactory& factory, unsigned bandwidth,
                                           unsigned max_rounds,
                                           const PublicCoins* coins = nullptr);

// End-to-end: Partition inputs -> G(PA, PB) -> KT-1 simulation. Returns the
// simulation result plus the expected answer from the partition lattice.
struct PartitionViaBcc {
  Kt1SimulationResult sim;
  bool expected_join_is_one = false;
  SetPartition expected_join;
  // The partition recovered from the BCC algorithm's component labels on
  // row L (empty when the algorithm computes no labels).
  std::optional<SetPartition> recovered_join;
};

PartitionViaBcc solve_partition_via_bcc(const SetPartition& pa, const SetPartition& pb,
                                        const AlgorithmFactory& factory, unsigned bandwidth,
                                        unsigned max_rounds, const PublicCoins* coins = nullptr);

PartitionViaBcc solve_two_partition_via_bcc(const SetPartition& pa, const SetPartition& pb,
                                            const AlgorithmFactory& factory, unsigned bandwidth,
                                            unsigned max_rounds,
                                            const PublicCoins* coins = nullptr);

// Batched sweep: one reduction + simulation per (PA, PB) input, fanned across
// `runner`'s thread pool with results in input order (bit-identical to a
// serial loop — the two-party runs are independent and seed-free).
std::vector<PartitionViaBcc> solve_partitions_via_bcc(
    const std::vector<std::pair<SetPartition, SetPartition>>& inputs,
    const AlgorithmFactory& factory, unsigned bandwidth, unsigned max_rounds,
    const BatchRunner& runner, const PublicCoins* coins = nullptr);

}  // namespace bcclb
