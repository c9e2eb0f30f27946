// The KT-0 -> KT-1 bootstrap: buying neighbor knowledge with bandwidth.
//
// Section 1.1's observation: if b = Ω(log n) there is essentially no
// difference between KT-0 and KT-1, because each vertex can announce its ID
// in O(1) rounds, after which everyone knows the ID behind every port. This
// combinator makes the observation executable: ⌈w/b⌉ announcement rounds
// (w = ⌈log₂ n⌉-bit IDs), then any KT-1 algorithm runs on the synthesized
// knowledge. At b = 1 the bootstrap costs an extra Θ(log n) rounds — the
// regime where the paper's KT-0 and KT-1 results need different proofs.
#pragma once

#include "bcc/algorithms/bitstream.h"
#include "bcc/round_engine.h"

namespace bcclb {

class Kt0BootstrapAlgorithm final : public VertexAlgorithm {
 public:
  // Wraps a KT-1 algorithm; `inner_factory` is instantiated once the
  // announcement phase has reconstructed the KT-1 view. IDs must fit
  // ⌈log₂ n⌉ bits (the default 0..n-1 IDs do).
  explicit Kt0BootstrapAlgorithm(AlgorithmFactory inner_factory);

  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;
  std::optional<std::uint64_t> component_label() const override;

  // Announcement rounds at size n, bandwidth b: ceil(ceil_log2(n)/b).
  static unsigned bootstrap_rounds(std::size_t n, unsigned bandwidth);

 private:
  AlgorithmFactory inner_factory_;
  LocalView view_;
  unsigned announce_rounds_ = 0;
  BitQueue tx_;
  std::vector<BitAccumulator> rx_;  // per port
  // Backing storage for the synthesized KT-1 view's spans (the learned IDs
  // exist nowhere else — the engine only shares tables it computed itself).
  std::vector<std::uint64_t> learned_port_ids_;
  std::vector<std::uint64_t> learned_all_ids_;
  std::unique_ptr<VertexAlgorithm> inner_;
};

// Factory combinator: run `kt1_algorithm` in the KT-0 model.
AlgorithmFactory kt0_bootstrap(AlgorithmFactory kt1_algorithm);

}  // namespace bcclb
