#include "bcc/algorithms/adjacency_exchange.h"

#include <algorithm>

#include "common/check.h"
#include "graph/components.h"

namespace bcclb {

namespace {

std::uint32_t rank_of(std::span<const std::uint64_t> sorted_ids, std::uint64_t id) {
  const auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), id);
  BCCLB_CHECK(it != sorted_ids.end() && *it == id, "id not found");
  return static_cast<std::uint32_t>(it - sorted_ids.begin());
}

}  // namespace

AdjacencyExchangeAlgorithm::AdjacencyExchangeAlgorithm(GraphPredicate predicate)
    : predicate_(std::move(predicate)) {
  BCCLB_REQUIRE(predicate_ != nullptr, "predicate required");
}

unsigned AdjacencyExchangeAlgorithm::rounds_needed(std::size_t n, unsigned bandwidth) {
  return static_cast<unsigned>((n + bandwidth - 1) / bandwidth);
}

void AdjacencyExchangeAlgorithm::init(const LocalView& view) {
  BCCLB_REQUIRE(view.mode == KnowledgeMode::kKT1,
                "adjacency exchange attributes rows by ID (use kt0_bootstrap in KT-0)");
  view_ = view;
  rounds_ = rounds_needed(view.n, view.bandwidth);

  // My adjacency row, rank-indexed.
  const std::uint32_t me = rank_of(view.all_ids, view.id);
  std::vector<bool> row(view.n, false);
  for (Port p : view.input_ports) {
    row[rank_of(view.all_ids, view.port_peer_ids[p])] = true;
  }
  BCCLB_CHECK(!row[me], "self-loop in adjacency row");
  for (std::size_t i = 0; i < view.n; ++i) {
    tx_.push_word(row[i] ? 1 : 0, 1);
  }
  rx_.resize(view.n);
}

Message AdjacencyExchangeAlgorithm::broadcast(unsigned round) {
  (void)round;
  if (computed_) return Message::silent();
  return tx_.pop(view_.bandwidth);
}

void AdjacencyExchangeAlgorithm::receive(unsigned round, std::span<const Message> inbox) {
  (void)round;
  if (computed_) return;
  for (Port p = 0; p + 1 < view_.n; ++p) {
    rx_[rank_of(view_.all_ids, view_.port_peer_ids[p])].add(inbox[p]);
  }
  ++done_rounds_;
  if (done_rounds_ < rounds_) return;

  // Reconstruct the graph from everyone's rows (own row from init's data —
  // equivalently, the symmetric closure of the received rows).
  const std::uint32_t me = rank_of(view_.all_ids, view_.id);
  Graph g(view_.n);
  for (std::uint32_t r = 0; r < view_.n; ++r) {
    if (r == me) continue;
    BCCLB_CHECK(rx_[r].size_bits() >= view_.n, "short adjacency row");
    for (std::uint32_t c = r + 1; c < view_.n; ++c) {
      if (rx_[r].bits_as_word(c, 1) && !g.has_edge(r, c)) g.add_edge(r, c);
    }
    // Edges incident to me appear only in others' rows toward column `me`.
    if (r < me && rx_[r].bits_as_word(me, 1) && !g.has_edge(r, me)) g.add_edge(r, me);
  }
  // Edges (me, c) with c > me come from my own row via input ports.
  for (Port p : view_.input_ports) {
    const std::uint32_t c = rank_of(view_.all_ids, view_.port_peer_ids[p]);
    if (!g.has_edge(me, c)) g.add_edge(me, c);
  }
  decision_ = predicate_(g);
  computed_ = true;
}

bool AdjacencyExchangeAlgorithm::finished() const { return computed_; }

bool AdjacencyExchangeAlgorithm::decide() const {
  BCCLB_REQUIRE(computed_, "decision read before the exchange completed");
  return decision_;
}

AlgorithmFactory adjacency_exchange_factory(GraphPredicate predicate) {
  return [predicate] { return std::make_unique<AdjacencyExchangeAlgorithm>(predicate); };
}

bool graph_has_k4(const Graph& g) {
  const std::size_t n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.has_edge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (!g.has_edge(a, c) || !g.has_edge(b, c)) continue;
        for (VertexId d = c + 1; d < n; ++d) {
          if (g.has_edge(a, d) && g.has_edge(b, d) && g.has_edge(c, d)) return true;
        }
      }
    }
  }
  return false;
}

GraphPredicate k4_free_predicate() {
  return [](const Graph& g) { return !graph_has_k4(g); };
}

GraphPredicate connectivity_predicate() {
  return [](const Graph& g) { return is_connected(g); };
}

}  // namespace bcclb
