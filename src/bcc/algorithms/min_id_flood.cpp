#include "bcc/algorithms/min_id_flood.h"

#include <algorithm>

#include "common/bitset_reduce.h"
#include "common/check.h"
#include "common/mathutil.h"

namespace bcclb {

void MinIdFloodAlgorithm::init(const LocalView& view) {
  view_ = view;
  label_ = view.id;
  // IDs must fit the bandwidth: this baseline does not split messages. The
  // width covers any ID up to 2n (the default 0..n-1 IDs and the reduction's
  // 1..4n IDs sweep below 2^width for width = ceil_log2(4n)).
  width_ = std::max(1u, bit_width_u64(view.id));
  BCCLB_REQUIRE(width_ <= view.bandwidth,
                "min-ID flooding needs bandwidth >= bit width of IDs");
  width_ = view.bandwidth;
}

Message MinIdFloodAlgorithm::broadcast(unsigned round) {
  (void)round;
  return Message::bits(label_, width_);
}

void MinIdFloodAlgorithm::receive(unsigned round, std::span<const Message> inbox) {
  (void)round;
  if (rounds_done_ + 1 < rounds_needed(view_.n)) {
    // Flooding round: adopt the smallest label heard over input edges.
    for (Port p : view_.input_ports) {
      label_ = std::min(label_, inbox[p].value());
    }
  } else {
    // Final round: everyone broadcast their (stable) label; check agreement.
    all_equal_ = std::all_of(inbox.begin(), inbox.end(),
                             [&](const Message& m) { return m.value() == label_; });
  }
  ++rounds_done_;
}

bool MinIdFloodAlgorithm::finished() const { return rounds_done_ >= rounds_needed(view_.n); }

bool MinIdFloodAlgorithm::decide() const { return all_equal_; }

std::optional<std::uint64_t> MinIdFloodAlgorithm::component_label() const { return label_; }

AlgorithmFactory min_id_flood_factory() {
  return [] { return std::make_unique<MinIdFloodAlgorithm>(); };
}

void SoaMinIdFlood::init(const InstanceView& view, unsigned bandwidth,
                         const FaultInjector* faults, unsigned threads) {
  n_ = view.num_vertices();
  exact_ = faults != nullptr;
  threads_ = threads;
  rounds_done_ = 0;
  all_equal_ = false;
  // Same width contract as the per-vertex algorithm: every ID must fit the
  // bandwidth, and every broadcast is padded to the full budget.
  std::uint64_t max_id = 0;
  for (VertexId v = 0; v < n_; ++v) max_id = std::max(max_id, view.id_of(v));
  BCCLB_REQUIRE(std::max(1u, bit_width_u64(max_id)) <= bandwidth,
                "min-ID flooding needs bandwidth >= bit width of IDs");
  width_ = bandwidth;

  labels_.resize(n_);
  for (VertexId v = 0; v < n_; ++v) labels_[v] = view.id_of(v);

  // Input graph to CSR, one neighbors() query per vertex.
  adj_offsets_.assign(n_ + 1, 0);
  adj_targets_.clear();
  std::vector<VertexId> nbrs;
  for (VertexId v = 0; v < n_; ++v) {
    view.neighbors(v, nbrs);
    adj_offsets_[v + 1] = adj_offsets_[v] + nbrs.size();
    adj_targets_.insert(adj_targets_.end(), nbrs.begin(), nbrs.end());
  }

  frontier_.clear();
  next_frontier_.clear();
  queued_stamp_.assign(exact_ ? 0 : n_, 0);
}

void SoaMinIdFlood::broadcast(unsigned round, SoaBroadcasts& out) {
  if (exact_ || round == 0) {
    for (VertexId v = 0; v < n_; ++v) out.set_bits(v, labels_[v], width_);
    return;
  }
  // Only labels that changed in the previous receive differ from what the
  // persistent outbox already holds.
  for (VertexId v : frontier_) out.set_bits(v, labels_[v], width_);
}

void SoaMinIdFlood::receive_flood_exact(const SoaBroadcasts& in) {
  // The dense computation, neighbor order immaterial (min): adopt the
  // smallest wire value heard over input edges. in.value throws on a silent
  // slot exactly as Message::value does for the per-vertex algorithm.
  for (VertexId v = 0; v < n_; ++v) {
    std::uint64_t label = labels_[v];
    for (std::uint64_t i = adj_offsets_[v]; i < adj_offsets_[v + 1]; ++i) {
      label = std::min(label, in.value(adj_targets_[i]));
    }
    labels_[v] = label;
  }
}

void SoaMinIdFlood::receive_flood_frontier(unsigned round, const SoaBroadcasts& in) {
  // A vertex's label can drop in round t only via a neighbor whose
  // broadcast changed in round t (relative to t-1): unchanged broadcasts
  // were already folded in. Round 0 seeds with every vertex.
  next_frontier_.clear();
  const std::uint32_t stamp = round + 1;
  const auto values = in.values();
  const auto relax_neighbors_of = [&](VertexId u) {
    const std::uint64_t value = values[u];
    for (std::uint64_t i = adj_offsets_[u]; i < adj_offsets_[u + 1]; ++i) {
      const VertexId w = adj_targets_[i];
      if (value < labels_[w]) {
        labels_[w] = value;
        if (queued_stamp_[w] != stamp) {
          queued_stamp_[w] = stamp;
          next_frontier_.push_back(w);
        }
      }
    }
  };
  if (round == 0) {
    for (VertexId u = 0; u < n_; ++u) relax_neighbors_of(u);
  } else {
    for (VertexId u : frontier_) relax_neighbors_of(u);
  }
  frontier_.swap(next_frontier_);
}

void SoaMinIdFlood::receive(unsigned round, const SoaBroadcasts& in) {
  if (rounds_done_ + 1 < rounds_needed(n_)) {
    if (exact_) {
      receive_flood_exact(in);
    } else {
      receive_flood_frontier(round, in);
    }
  } else if (exact_) {
    // Final agreement round, dense: vertex v accepts iff every other wire
    // value equals its own label (which it just broadcast).
    bool all = true;
    for (VertexId v = 0; v < n_; ++v) {
      bool mine = true;
      for (VertexId u = 0; u < n_; ++u) {
        if (u != v && in.value(u) != labels_[v]) {
          mine = false;
          break;
        }
      }
      all = all && mine;
    }
    all_equal_ = all;
  } else {
    // Fault-free, the wire carries exactly the labels: every vertex's
    // acceptance predicate "all n-1 other broadcasts equal my label (= my
    // own broadcast)" is globally equivalent to all n broadcast values
    // being equal — one cache-blocked reduction instead of n scans of
    // length n-1. (If two values differ, every vertex hears a value unequal
    // to its own label, so the per-vertex decisions are uniform either way.)
    const MinMaxU64 mm = min_max_values(in.values().subspan(0, n_), threads_);
    all_equal_ = mm.min == mm.max;
  }
  ++rounds_done_;
}

bool SoaMinIdFlood::all_finished() const { return rounds_done_ >= rounds_needed(n_); }

bool SoaMinIdFlood::decision() const { return all_equal_; }

std::uint64_t SoaMinIdFlood::label_of(VertexId v) const { return labels_[v]; }

std::uint64_t SoaMinIdFlood::num_components() const {
  std::uint64_t count = 0;
  for (VertexId v = 0; v < n_; ++v) count += labels_[v] == v ? 1 : 0;
  return count;
}

std::size_t SoaMinIdFlood::state_bytes() const {
  return labels_.capacity() * sizeof(std::uint64_t) +
         adj_offsets_.capacity() * sizeof(std::uint64_t) +
         adj_targets_.capacity() * sizeof(VertexId) +
         (frontier_.capacity() + next_frontier_.capacity()) * sizeof(VertexId) +
         queued_stamp_.capacity() * sizeof(std::uint32_t);
}

SoaProgramFactory soa_min_id_flood_factory() {
  return [] { return std::make_unique<SoaMinIdFlood>(); };
}

}  // namespace bcclb
