// Distributed BFS in CONGEST — the distance-computation side of the related
// work ([HP15] studies distances/diameter in the broadcast congest clique).
//
// The source announces itself in round 0; the wave front advances one hop
// per round, so vertex v learns dist(source, v) in exactly dist rounds and
// the run completes in ecc(source) + O(1) rounds. Messages are a single
// "I was reached" bit — b = 1 suffices, making the Θ(D) round count a pure
// distance phenomenon.
#pragma once

#include <optional>

#include "congest/model.h"

namespace bcclb {

class BfsAlgorithm final : public CongestAlgorithm {
 public:
  explicit BfsAlgorithm(VertexId source);

  void init(const CongestView& view) override;
  std::vector<Message> send(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  // decide() = "I have been reached" — the AND over vertices answers
  // "is the graph connected (from the source)".
  bool decide() const override;

  std::optional<unsigned> distance() const { return dist_; }

 private:
  VertexId source_;
  CongestView view_;
  std::optional<unsigned> dist_;
  bool announced_ = false;
  unsigned rounds_done_ = 0;
};

CongestAlgorithmFactory bfs_factory(VertexId source);

struct BfsRun {
  CongestRunResult run;
  std::vector<std::optional<unsigned>> distances;  // per vertex
  unsigned eccentricity = 0;  // max finite distance
};

// Runs BFS from `source`; max rounds n + 2.
BfsRun run_congest_bfs(const Graph& g, VertexId source, unsigned bandwidth = 1);

}  // namespace bcclb
