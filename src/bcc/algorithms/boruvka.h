// Boruvka over broadcast: deterministic Connectivity/ConnectedComponents in
// O(log n) phases in the KT-1 broadcast congested clique.
//
// Because every broadcast is public, all vertices can maintain an identical
// global component labeling: in each phase a vertex broadcasts its minimum
// outgoing edge proposal (1 + ceil(log2 n) bits, split across ceil((1+w)/b)
// rounds when b is small), every vertex merges all proposals through the
// same deterministic union-find, and components at least halve per phase.
// This is the shape of the upper bounds the paper cites for tightness
// ([JN17]-style O(log n) at b = Θ(log n)); at b = Θ(log n) the measured
// round count is Θ(log n), exactly where the paper's Ω(log n) bound bites.
#pragma once

#include <memory>

#include "bcc/algorithms/bitstream.h"
#include "bcc/round_engine.h"
#include "graph/union_find.h"

namespace bcclb {

class BoruvkaAlgorithm final : public VertexAlgorithm {
 public:
  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;
  std::optional<std::uint64_t> component_label() const override;

  // Safe round cap for an n-vertex run at bandwidth b.
  static unsigned max_rounds(std::size_t n, unsigned bandwidth);

 private:
  void start_phase();
  void process_phase(const std::vector<std::uint64_t>& proposals);

  LocalView view_;
  unsigned width_ = 1;          // bits for a vertex rank
  unsigned phase_msg_bits_ = 2;  // 1 (has-edge flag) + width_
  unsigned rounds_per_phase_ = 1;
  unsigned round_in_phase_ = 0;
  bool done_ = false;

  std::vector<std::uint32_t> my_rank_neighbors_;  // ranks of input-graph peers
  std::uint32_t my_rank_ = 0;
  std::vector<std::uint32_t> labels_;  // global labeling, identical everywhere

  BitQueue tx_;
  std::vector<BitAccumulator> rx_;  // one per rank

  friend class BoruvkaTestPeek;
};

AlgorithmFactory boruvka_factory();

}  // namespace bcclb
