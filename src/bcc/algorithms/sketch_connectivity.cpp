#include "bcc/algorithms/sketch_connectivity.h"

#include <algorithm>

#include "common/check.h"
#include "common/mathutil.h"
#include "graph/union_find.h"

namespace bcclb {

namespace {

std::uint32_t rank_of(std::span<const std::uint64_t> sorted_ids, std::uint64_t id) {
  const auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), id);
  BCCLB_CHECK(it != sorted_ids.end() && *it == id, "id not found in global ID list");
  return static_cast<std::uint32_t>(it - sorted_ids.begin());
}

unsigned default_copies(std::size_t n) { return 2 * std::max(1u, ceil_log2(n)) + 4; }

}  // namespace

SketchConnectivityAlgorithm::SketchConnectivityAlgorithm(SketchConnectivityConfig config)
    : config_(config) {}

void SketchConnectivityAlgorithm::init(const LocalView& view) {
  BCCLB_REQUIRE(view.mode == KnowledgeMode::kKT1, "sketch connectivity needs KT-1");
  BCCLB_REQUIRE(view.coins != nullptr, "sketch connectivity needs public coins");
  view_ = view;
  copies_ = config_.copies != 0 ? config_.copies : default_copies(view.n);
  seed_ = view.coins->word(0, 64);
  my_rank_ = rank_of(view.all_ids, view.id);

  std::vector<VertexId> nbrs;
  for (Port p : view.input_ports) {
    nbrs.push_back(rank_of(view.all_ids, view.port_peer_ids[p]));
  }
  const GraphSketch mine = GraphSketch::of_vertex(view.n, my_rank_, nbrs, seed_, copies_);
  const auto words = mine.serialize();
  sketch_words_ = words.size();
  tx_.push_words(words);
  rx_.resize(view.n);
}

Message SketchConnectivityAlgorithm::broadcast(unsigned round) {
  (void)round;
  if (broadcast_done_) return Message::silent();
  return tx_.pop(view_.bandwidth);
}

void SketchConnectivityAlgorithm::receive(unsigned round, std::span<const Message> inbox) {
  (void)round;
  if (broadcast_done_) return;
  for (Port p = 0; p + 1 < view_.n; ++p) {
    rx_[rank_of(view_.all_ids, view_.port_peer_ids[p])].add(inbox[p]);
  }
  // All vertices ship the same number of words, so everyone crosses the
  // finish line in the same round.
  const std::size_t expected_bits = sketch_words_ * 64;
  bool all_in = tx_.empty();
  for (std::uint32_t r = 0; all_in && r < view_.n; ++r) {
    if (r != my_rank_ && rx_[r].size_bits() < expected_bits) all_in = false;
  }
  if (all_in) {
    broadcast_done_ = true;
    run_local_boruvka();
  }
}

void SketchConnectivityAlgorithm::run_local_boruvka() {
  // Reconstruct everyone's sketch (ours from scratch, peers from bits).
  std::vector<GraphSketch> vertex_sketches;
  vertex_sketches.reserve(view_.n);
  for (std::uint32_t r = 0; r < view_.n; ++r) {
    if (r == my_rank_) {
      std::vector<VertexId> nbrs;
      for (Port p : view_.input_ports) {
        nbrs.push_back(rank_of(view_.all_ids, view_.port_peer_ids[p]));
      }
      vertex_sketches.push_back(
          GraphSketch::of_vertex(view_.n, my_rank_, nbrs, seed_, copies_));
    } else {
      vertex_sketches.push_back(
          GraphSketch::deserialize(view_.n, seed_, copies_, rx_[r].words()));
    }
  }

  // Boruvka with one fresh sketch copy per phase; identical at every vertex
  // because it only reads public data.
  UnionFind uf(view_.n);
  for (unsigned phase = 0; phase < copies_; ++phase) {
    // Merge sketches per current component.
    std::vector<std::optional<GraphSketch>> comp_sketch(view_.n);
    for (std::uint32_t r = 0; r < view_.n; ++r) {
      const std::size_t root = uf.find(r);
      if (!comp_sketch[root]) {
        comp_sketch[root] = vertex_sketches[r];
      } else {
        comp_sketch[root]->merge(vertex_sketches[r]);
      }
    }
    bool merged_any = false;
    for (std::uint32_t root = 0; root < view_.n; ++root) {
      if (!comp_sketch[root] || uf.find(root) != root) continue;
      const auto edge = comp_sketch[root]->sample_edge(phase);
      if (!edge) continue;
      if (edge->u >= view_.n || edge->v >= view_.n) continue;
      merged_any = uf.unite(edge->u, edge->v) || merged_any;
    }
    if (!merged_any && uf.num_sets() == 1) break;
  }
  const auto canon = uf.canonical_labels();
  labels_.resize(view_.n);
  for (std::uint32_t r = 0; r < view_.n; ++r) labels_[r] = static_cast<std::uint32_t>(canon[r]);
  computed_ = true;
}

bool SketchConnectivityAlgorithm::finished() const { return computed_; }

bool SketchConnectivityAlgorithm::decide() const {
  BCCLB_REQUIRE(computed_, "decision read before the run completed");
  return std::all_of(labels_.begin(), labels_.end(),
                     [&](std::uint32_t l) { return l == labels_[0]; });
}

std::optional<std::uint64_t> SketchConnectivityAlgorithm::component_label() const {
  if (!computed_) return std::nullopt;
  return view_.all_ids[labels_[my_rank_]];
}

unsigned SketchConnectivityAlgorithm::max_rounds(std::size_t n, unsigned bandwidth,
                                                 unsigned copies) {
  if (copies == 0) copies = default_copies(n);
  // Words per sketch: copies * levels * 4; levels = ceil_log2(n^2) + 2.
  const unsigned levels = ceil_log2(static_cast<std::uint64_t>(n) * n) + 2;
  const std::size_t bits = static_cast<std::size_t>(copies) * levels * 4 * 64;
  return static_cast<unsigned>((bits + bandwidth - 1) / bandwidth) + 2;
}

AlgorithmFactory sketch_connectivity_factory(SketchConnectivityConfig config) {
  return [config] { return std::make_unique<SketchConnectivityAlgorithm>(config); };
}

}  // namespace bcclb
