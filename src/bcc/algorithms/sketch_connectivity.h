// Sketch-based connectivity: the randomized polylog upper bound in BCC(b).
//
// Substitute for the deterministic [MT16] sketches the paper cites for the
// tightness of its Ω(log n) bound (see DESIGN.md): every vertex broadcasts
// O(log n) independent AGM ℓ0-sketches of its incidence vector once (the only
// communication, ceil(total_sketch_bits / b) rounds), after which all
// vertices run an identical local Boruvka over merged sketches, consuming one
// fresh sketch copy per phase. Monte Carlo: fails with small probability,
// exactly the constant-error regime the paper's lower bounds speak to.
#pragma once

#include "bcc/algorithms/bitstream.h"
#include "bcc/round_engine.h"
#include "sketch/graph_sketch.h"

namespace bcclb {

struct SketchConnectivityConfig {
  // Independent sketch copies; one Boruvka phase consumes one copy. The
  // default 2*ceil(log2 n) + 4 is set in init when copies == 0.
  unsigned copies = 0;
};

class SketchConnectivityAlgorithm final : public VertexAlgorithm {
 public:
  explicit SketchConnectivityAlgorithm(SketchConnectivityConfig config = {});

  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;
  std::optional<std::uint64_t> component_label() const override;

  // Total bits each vertex broadcasts (for round-count predictions).
  std::size_t sketch_bits() const { return sketch_words_ * 64; }

  static unsigned max_rounds(std::size_t n, unsigned bandwidth, unsigned copies = 0);

 private:
  void run_local_boruvka();

  SketchConnectivityConfig config_;
  LocalView view_;
  unsigned copies_ = 0;
  std::uint64_t seed_ = 0;
  std::uint32_t my_rank_ = 0;
  std::size_t sketch_words_ = 0;

  BitQueue tx_;
  std::vector<BitAccumulator> rx_;
  bool broadcast_done_ = false;
  bool computed_ = false;
  std::vector<std::uint32_t> labels_;
};

AlgorithmFactory sketch_connectivity_factory(SketchConnectivityConfig config = {});

}  // namespace bcclb
