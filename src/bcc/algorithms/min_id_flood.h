// Min-ID flooding: the Θ(n)-round baseline for Connectivity and
// ConnectedComponents.
//
// Every vertex repeatedly broadcasts the smallest ID it has heard along
// input-graph edges; after n-1 rounds labels equal the component minima, and
// one more round of broadcasts lets every vertex check whether all labels
// agree (Connectivity) or output its label (ConnectedComponents). Works in
// KT-0 — it never reads peer IDs, only input ports. Requires bandwidth wide
// enough to carry an ID.
#pragma once

#include "bcc/simulator.h"
#include "bcc/soa_engine.h"

namespace bcclb {

class MinIdFloodAlgorithm final : public VertexAlgorithm {
 public:
  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;
  std::optional<std::uint64_t> component_label() const override;

  // Rounds this algorithm needs on an n-vertex instance.
  static unsigned rounds_needed(std::size_t n) { return static_cast<unsigned>(n); }

 private:
  LocalView view_;
  std::uint64_t label_ = 0;
  unsigned width_ = 1;
  unsigned rounds_done_ = 0;
  bool all_equal_ = false;
};

AlgorithmFactory min_id_flood_factory();

// The whole-graph SoA form of the same protocol, broadcast-stream-identical
// to MinIdFloodAlgorithm on every instance (enforced by the round-major
// transcript digest in soa_engine_test).
//
// Execution exploits the protocol's structure without changing its
// semantics: labels are monotone non-increasing and a vertex's label can
// change in round t only if a neighbor's broadcast changed in round t-1, so
// fault-free rounds process a frontier of changed vertices (total work
// O(n log n) in expectation over the seeded ID placement, against the dense
// engine's O(n^2) per *round*), and the final agreement round — every
// vertex checking all n-1 broadcasts — collapses to one cache-blocked
// min/max reduction, valid because each vertex's final-round broadcast
// equals its own label. In exact mode (fault injection active) both
// shortcuts are disabled and every round is the dense O(n)-broadcast /
// per-vertex-scan computation, so rewritten wires behave exactly as they do
// for MinIdFloodAlgorithm.
class SoaMinIdFlood final : public SoaProgram {
 public:
  void init(const InstanceView& view, unsigned bandwidth, const FaultInjector* faults,
            unsigned threads) override;
  void broadcast(unsigned round, SoaBroadcasts& out) override;
  void receive(unsigned round, const SoaBroadcasts& in) override;
  bool all_finished() const override;
  bool decision() const override;
  std::uint64_t label_of(VertexId v) const override;
  std::size_t state_bytes() const override;

  // Number of connected components after a completed run: labels are
  // component minima and IDs are 0..n-1, so a component is counted exactly
  // where label_of(v) == v.
  std::uint64_t num_components() const;

  static unsigned rounds_needed(std::size_t n) { return static_cast<unsigned>(n); }

 private:
  void receive_flood_exact(const SoaBroadcasts& in);
  void receive_flood_frontier(unsigned round, const SoaBroadcasts& in);

  std::size_t n_ = 0;
  unsigned width_ = 1;
  unsigned threads_ = 1;
  bool exact_ = false;
  unsigned rounds_done_ = 0;
  bool all_equal_ = false;
  std::vector<std::uint64_t> labels_;
  // Input graph as CSR, built once from the view (O(n) for the implicit
  // families, whose degrees are constants).
  std::vector<std::uint64_t> adj_offsets_;
  std::vector<VertexId> adj_targets_;
  // Frontier state: vertices whose label changed in the previous receive,
  // and a round-stamp array deduplicating insertions.
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_frontier_;
  std::vector<std::uint32_t> queued_stamp_;
};

SoaProgramFactory soa_min_id_flood_factory();

}  // namespace bcclb
