// The universal BCC(b) algorithm: full adjacency exchange.
//
// Every vertex broadcasts its n-bit adjacency row in ⌈n/b⌉ rounds; afterwards
// every vertex knows the whole input graph and can evaluate ANY graph
// predicate locally. This is the ceiling the paper's landscape sits under:
//   - Connectivity: Ω(log n) (the paper) ... O(n/b) (this),
//   - K4-detection: Ω(n/b) ([DKO14], via a Θ(n²)-bit bottleneck) — so for
//     subgraph detection THIS trivial algorithm is already optimal, while
//     for Connectivity the interesting work happens far below it.
// Works in KT-0: rows are indexed by port-discoverable structure? No — rows
// are indexed by vertex, so the sender's identity must be known: KT-1 (or a
// bootstrap, see kt0_bootstrap.h).
#pragma once

#include <functional>

#include "bcc/algorithms/bitstream.h"
#include "bcc/round_engine.h"
#include "graph/graph.h"

namespace bcclb {

using GraphPredicate = std::function<bool(const Graph&)>;

class AdjacencyExchangeAlgorithm final : public VertexAlgorithm {
 public:
  // The decision is predicate(reconstructed input graph); every vertex
  // reconstructs the same graph, so the AND is the predicate value.
  explicit AdjacencyExchangeAlgorithm(GraphPredicate predicate);

  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;

  // ⌈n/b⌉ exchange rounds.
  static unsigned rounds_needed(std::size_t n, unsigned bandwidth);

 private:
  GraphPredicate predicate_;
  LocalView view_;
  unsigned rounds_ = 0;
  unsigned done_rounds_ = 0;
  BitQueue tx_;
  std::vector<BitAccumulator> rx_;  // per rank
  bool decision_ = false;
  bool computed_ = false;
};

AlgorithmFactory adjacency_exchange_factory(GraphPredicate predicate);

// Predicates for the experiments.
bool graph_has_k4(const Graph& g);
GraphPredicate k4_free_predicate();         // true iff no K4
GraphPredicate connectivity_predicate();    // true iff connected
GraphPredicate diameter_at_most_predicate(std::size_t d);

}  // namespace bcclb
