#include "bcc/algorithms/boruvka_mst.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "common/mathutil.h"
#include "graph/union_find.h"

namespace bcclb {

namespace {

constexpr unsigned kWeightBits = 16;

std::uint32_t rank_of(std::span<const std::uint64_t> sorted_ids, std::uint64_t id) {
  const auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), id);
  BCCLB_CHECK(it != sorted_ids.end() && *it == id, "id not found");
  return static_cast<std::uint32_t>(it - sorted_ids.begin());
}

// The (w, u, v) total order shared with kruskal_msf.
bool edge_less(const WeightedEdge& a, const WeightedEdge& b) {
  return std::tie(a.w, a.u, a.v) < std::tie(b.w, b.u, b.v);
}

}  // namespace

BoruvkaMstAlgorithm::BoruvkaMstAlgorithm(WeightedGraph graph) : graph_(std::move(graph)) {
  for (const WeightedEdge& e : graph_.edges()) {
    BCCLB_REQUIRE(e.w < (1u << kWeightBits), "weights must fit 16 bits");
  }
}

void BoruvkaMstAlgorithm::init(const LocalView& view) {
  BCCLB_REQUIRE(view.mode == KnowledgeMode::kKT1, "MST-over-broadcast needs KT-1");
  BCCLB_REQUIRE(view.n == graph_.num_vertices(), "graph size mismatch");
  view_ = view;
  width_ = std::max(1u, ceil_log2(view.n));
  phase_msg_bits_ = 1 + width_ + kWeightBits;
  rounds_per_phase_ = (phase_msg_bits_ + view.bandwidth - 1) / view.bandwidth;
  my_rank_ = rank_of(view.all_ids, view.id);
  labels_.resize(view.n);
  for (std::size_t i = 0; i < view.n; ++i) labels_[i] = static_cast<std::uint32_t>(i);
  rx_.resize(view.n);
  tx_ = BitQueue();
  tx_.push_word(encode_proposal(), phase_msg_bits_);
  round_in_phase_ = 0;
}

std::uint64_t BoruvkaMstAlgorithm::encode_proposal() const {
  // Minimum incident outgoing edge under (w, u, v); bit 0 = has-edge, then
  // the target rank, then the weight.
  std::uint64_t payload = 0;
  bool have = false;
  WeightedEdge best;
  for (const WeightedEdge& e : graph_.incident(my_rank_)) {
    const std::uint32_t other = e.u == my_rank_ ? e.v : e.u;
    if (labels_[other] == labels_[my_rank_]) continue;
    if (!have || edge_less(e, best)) {
      have = true;
      best = e;
    }
  }
  if (have) {
    const std::uint32_t other = best.u == my_rank_ ? best.v : best.u;
    payload = 1 | (static_cast<std::uint64_t>(other) << 1) |
              (static_cast<std::uint64_t>(best.w) << (1 + width_));
  }
  return payload;
}

Message BoruvkaMstAlgorithm::broadcast(unsigned round) {
  (void)round;
  if (done_) return Message::silent();
  return tx_.pop(view_.bandwidth);
}

void BoruvkaMstAlgorithm::receive(unsigned round, std::span<const Message> inbox) {
  (void)round;
  if (done_) return;
  for (Port p = 0; p + 1 < view_.n; ++p) {
    rx_[rank_of(view_.all_ids, view_.port_peer_ids[p])].add(inbox[p]);
  }
  ++round_in_phase_;
  if (round_in_phase_ < rounds_per_phase_) return;

  std::vector<std::uint64_t> proposals(view_.n, 0);
  for (std::uint32_t r = 0; r < view_.n; ++r) {
    if (r == my_rank_) {
      proposals[r] = encode_proposal();
    } else {
      BCCLB_CHECK(rx_[r].size_bits() >= phase_msg_bits_, "short phase message");
      proposals[r] = rx_[r].bits_as_word(0, phase_msg_bits_);
    }
  }
  process_phase(proposals);
  if (!done_) {
    tx_ = BitQueue();
    tx_.push_word(encode_proposal(), phase_msg_bits_);
    round_in_phase_ = 0;
    for (auto& acc : rx_) acc.clear();
  }
}

void BoruvkaMstAlgorithm::process_phase(const std::vector<std::uint64_t>& proposals) {
  // Per component, the minimum proposed edge under (w, u, v); identical at
  // every vertex because proposals are public.
  struct Candidate {
    bool have = false;
    WeightedEdge edge;
  };
  std::vector<Candidate> best(view_.n);
  for (std::uint32_t r = 0; r < view_.n; ++r) {
    if (!(proposals[r] & 1)) continue;
    const std::uint32_t target =
        static_cast<std::uint32_t>((proposals[r] >> 1) & ((1ULL << width_) - 1));
    const std::uint32_t w =
        static_cast<std::uint32_t>((proposals[r] >> (1 + width_)) & ((1ULL << kWeightBits) - 1));
    BCCLB_REQUIRE(target < view_.n, "proposal target out of range");
    const WeightedEdge e(r, target, w);
    Candidate& c = best[labels_[r]];
    if (!c.have || edge_less(e, c.edge)) {
      c.have = true;
      c.edge = e;
    }
  }
  UnionFind uf(view_.n);
  for (std::uint32_t r = 0; r < view_.n; ++r) uf.unite(r, labels_[r]);
  bool merged_any = false;
  // Deterministic order over components: by label index.
  for (std::uint32_t root = 0; root < view_.n; ++root) {
    if (!best[root].have) continue;
    const WeightedEdge& e = best[root].edge;
    if (uf.unite(e.u, e.v)) {
      tree_.push_back(e);
      merged_any = true;
    }
  }
  const auto canon = uf.canonical_labels();
  for (std::uint32_t r = 0; r < view_.n; ++r) labels_[r] = static_cast<std::uint32_t>(canon[r]);
  if (!merged_any) {
    std::sort(tree_.begin(), tree_.end(), edge_less);
    done_ = true;
  }
}

bool BoruvkaMstAlgorithm::finished() const { return done_; }

bool BoruvkaMstAlgorithm::decide() const {
  return std::all_of(labels_.begin(), labels_.end(),
                     [&](std::uint32_t l) { return l == labels_[0]; });
}

std::optional<std::uint64_t> BoruvkaMstAlgorithm::component_label() const {
  return view_.all_ids.empty() ? std::optional<std::uint64_t>{}
                               : std::optional<std::uint64_t>{view_.all_ids[labels_[my_rank_]]};
}

std::vector<WeightedEdge> BoruvkaMstAlgorithm::tree_edges() const { return tree_; }

unsigned BoruvkaMstAlgorithm::max_rounds(std::size_t n, unsigned bandwidth) {
  const unsigned width = std::max(1u, ceil_log2(n));
  const unsigned per_phase = (1 + width + kWeightBits + bandwidth - 1) / bandwidth;
  return (ceil_log2(std::max<std::size_t>(n, 2)) + 2) * per_phase;
}

AlgorithmFactory boruvka_mst_factory(WeightedGraph graph) {
  return [graph] { return std::make_unique<BoruvkaMstAlgorithm>(graph); };
}

MstRun run_boruvka_mst(const WeightedGraph& graph, unsigned bandwidth) {
  const BccInstance instance = BccInstance::kt1(graph.skeleton());
  RoundEngine engine;
  MstRun out{engine.run(instance, bandwidth, boruvka_mst_factory(graph),
                        BoruvkaMstAlgorithm::max_rounds(graph.num_vertices(), bandwidth)),
             {}};
  BCCLB_CHECK(!out.run.agents.empty(), "run returned no agents");
  const auto* first = dynamic_cast<const BoruvkaMstAlgorithm*>(out.run.agents.front().get());
  BCCLB_CHECK(first != nullptr, "unexpected agent type");
  out.forest = first->tree_edges();
  // The forest is public information: every vertex must agree.
  for (const auto& agent : out.run.agents) {
    const auto* a = dynamic_cast<const BoruvkaMstAlgorithm*>(agent.get());
    BCCLB_CHECK(a != nullptr && a->tree_edges() == out.forest,
                "vertices disagree on the forest");
  }
  return out;
}

}  // namespace bcclb
