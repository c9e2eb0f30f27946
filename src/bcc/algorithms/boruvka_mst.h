// Minimum spanning forest over broadcast: the MST-flavoured sibling of
// Boruvka connectivity (the paper's introduction treats Connectivity and
// MST as the same complexity story in these models).
//
// Each phase, every vertex broadcasts its minimum incident outgoing edge —
// (target rank, 16-bit weight) under the total order (w, u, v) — and every
// vertex applies the identical public merge, so after O(log n) phases all
// vertices know the full minimum spanning forest. At b = Θ(log n) this is
// Θ(log n) rounds; the Ω(log n) Connectivity bound applies to MST a
// fortiori (MST decides connectivity).
#pragma once

#include "bcc/algorithms/bitstream.h"
#include "bcc/round_engine.h"
#include "graph/weighted.h"

namespace bcclb {

class BoruvkaMstAlgorithm final : public VertexAlgorithm {
 public:
  // Every vertex receives the same graph object but reads only its own
  // incident edges (indexed by its rank in sorted-ID order). Weights must
  // fit 16 bits.
  explicit BoruvkaMstAlgorithm(WeightedGraph graph);

  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;
  std::optional<std::uint64_t> component_label() const override;

  // The minimum spanning forest this vertex computed (identical at every
  // vertex; sorted by (w, u, v)). Valid once finished.
  std::vector<WeightedEdge> tree_edges() const;

  static unsigned max_rounds(std::size_t n, unsigned bandwidth);

 private:
  std::uint64_t encode_proposal() const;
  void process_phase(const std::vector<std::uint64_t>& proposals);

  WeightedGraph graph_;
  LocalView view_;
  unsigned width_ = 1;
  unsigned phase_msg_bits_ = 0;
  unsigned rounds_per_phase_ = 1;
  unsigned round_in_phase_ = 0;
  bool done_ = false;

  std::uint32_t my_rank_ = 0;
  std::vector<std::uint32_t> labels_;
  std::vector<WeightedEdge> tree_;

  BitQueue tx_;
  std::vector<BitAccumulator> rx_;
};

// Runs the MSF algorithm on BccInstance::kt1(graph.skeleton()) and returns
// the run plus the (verified-identical-everywhere) forest.
struct MstRun {
  RunResult run;
  std::vector<WeightedEdge> forest;
};

MstRun run_boruvka_mst(const WeightedGraph& graph, unsigned bandwidth);

AlgorithmFactory boruvka_mst_factory(WeightedGraph graph);

}  // namespace bcclb
