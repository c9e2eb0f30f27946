#include "congest/bfs.h"

#include "common/check.h"

namespace bcclb {

BfsAlgorithm::BfsAlgorithm(VertexId source) : source_(source) {}

void BfsAlgorithm::init(const CongestView& view) {
  view_ = view;
  if (view.id == source_) dist_ = 0;
}

std::vector<Message> BfsAlgorithm::send(unsigned round) {
  // A vertex at distance d announces exactly once, in round d.
  if (dist_.has_value() && *dist_ == round && !announced_) {
    announced_ = true;
    return std::vector<Message>(view_.neighbor_ids.size(), Message::one_bit(true));
  }
  return std::vector<Message>(view_.neighbor_ids.size(), Message::silent());
}

void BfsAlgorithm::receive(unsigned round, std::span<const Message> inbox) {
  if (!dist_.has_value()) {
    for (const Message& m : inbox) {
      if (!m.is_silent() && m.bit(0)) {
        dist_ = round + 1;
        break;
      }
    }
  }
  ++rounds_done_;
}

bool BfsAlgorithm::finished() const { return dist_.has_value() && announced_; }

bool BfsAlgorithm::decide() const { return dist_.has_value(); }

CongestAlgorithmFactory bfs_factory(VertexId source) {
  return [source] { return std::make_unique<BfsAlgorithm>(source); };
}

BfsRun run_congest_bfs(const Graph& g, VertexId source, unsigned bandwidth) {
  BCCLB_REQUIRE(source < g.num_vertices(), "source out of range");
  CongestSimulator sim(g, bandwidth);
  BfsRun out{sim.run(bfs_factory(source), static_cast<unsigned>(g.num_vertices()) + 2), {}, 0};
  out.distances.reserve(g.num_vertices());
  for (const auto& agent : out.run.agents) {
    const auto* bfs = dynamic_cast<const BfsAlgorithm*>(agent.get());
    BCCLB_CHECK(bfs != nullptr, "unexpected agent type");
    out.distances.push_back(bfs->distance());
    if (bfs->distance().has_value()) {
      out.eccentricity = std::max(out.eccentricity, *bfs->distance());
    }
  }
  return out;
}

}  // namespace bcclb
