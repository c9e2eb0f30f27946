#include "crossing/indistinguishability_graph.h"

#include <algorithm>

#include "bcc/batch_runner.h"
#include "common/check.h"
#include "common/random.h"

namespace bcclb {

ActiveEdgeFn all_edges_active() {
  return [](const CycleStructure& cs) { return cs.directed_edges(); };
}

void ActiveEdgeTable::push_row(std::span<const DirectedEdge> row_edges) {
  edges.insert(edges.end(), row_edges.begin(), row_edges.end());
  offsets.push_back(static_cast<std::uint32_t>(edges.size()));
}

std::vector<std::size_t> IndistinguishabilityGraph::two_cycle_degrees() const {
  std::vector<std::size_t> deg(two_cycles.size(), 0);
  for (std::uint32_t j : adj.targets) ++deg[j];
  return deg;
}

double IndistinguishabilityGraph::size_ratio() const {
  BCCLB_REQUIRE(!one_cycles.empty(), "empty V1");
  return static_cast<double>(two_cycles.size()) / static_cast<double>(one_cycles.size());
}

namespace {

// Open-addressing map from canonical packed successor word to dense V2
// index. Linear probing over a power-of-two table at load factor <= 1/2;
// the legacy unordered_map<std::string, ...> spent most of the build in key
// materialization and node allocations, this probes one or two cache lines.
class PackedIndex {
 public:
  explicit PackedIndex(std::span<const CycleStructure> structures) {
    std::size_t cap = 16;
    while (cap < structures.size() * 2) cap <<= 1;
    mask_ = cap - 1;
    keys_.assign(cap, kEmpty);
    vals_.resize(cap);
    for (std::uint32_t j = 0; j < structures.size(); ++j) {
      insert(structures[j].packed_successors(), j);
    }
  }

  std::uint32_t find(PackedStructure key) const {
    std::size_t slot = hash(key) & mask_;
    for (;;) {
      if (keys_[slot] == key) return vals_[slot];
      BCCLB_CHECK(keys_[slot] != kEmpty, "crossed structure missing from V2");
      slot = (slot + 1) & mask_;
    }
  }

 private:
  // All-ones is never a valid successor word (vertex 15 would be a fixed
  // point), so it can mark empty slots.
  static constexpr PackedStructure kEmpty = ~PackedStructure{0};

  static std::size_t hash(PackedStructure x) { return static_cast<std::size_t>(fmix64(x)); }

  void insert(PackedStructure key, std::uint32_t val) {
    std::size_t slot = hash(key) & mask_;
    while (keys_[slot] != kEmpty) {
      BCCLB_CHECK(keys_[slot] != key, "duplicate structure in V2");
      slot = (slot + 1) & mask_;
    }
    keys_[slot] = key;
    vals_[slot] = val;
  }

  std::size_t mask_;
  std::vector<PackedStructure> keys_;
  std::vector<std::uint32_t> vals_;
};

}  // namespace

CsrAdjacency build_indistinguishability_adjacency(std::span<const CycleStructure> one_cycles,
                                                  std::span<const CycleStructure> two_cycles,
                                                  const ActiveEdgeTable& active,
                                                  unsigned num_threads) {
  BCCLB_REQUIRE(!one_cycles.empty(), "empty V1");
  BCCLB_REQUIRE(active.num_rows() == one_cycles.size(),
                "active-edge table must have one row per one-cycle");
  const std::size_t n = one_cycles.front().num_vertices();
  BCCLB_REQUIRE(n <= kMaxPackedVertices, "packed kernel supports n <= 16");
  const std::size_t v1 = one_cycles.size();

  const PackedIndex index(two_cycles);

  // Fixed-stride scratch: row i owns scratch[i*cap, i*cap+cap). cap is the
  // worst-case pair count over all rows, so workers never contend and the
  // merge below reads rows in index order regardless of which worker filled
  // them.
  std::size_t cap = 1;
  for (std::size_t i = 0; i < v1; ++i) {
    const std::size_t d = active.offsets[i + 1] - active.offsets[i];
    cap = std::max(cap, d * (d - 1) / 2);
  }
  std::vector<std::uint32_t> scratch(v1 * cap);
  std::vector<std::uint32_t> counts(v1, 0);

  // Shard contiguous one-cycle ranges across the BatchRunner pool. Every
  // row's result depends only on its own index, so any shard count (and
  // hence any thread count) produces the same bytes.
  const BatchRunner runner(num_threads);
  const std::size_t shards = std::min<std::size_t>(runner.num_threads(), v1);
  const std::size_t base = v1 / shards;
  const std::size_t extra = v1 % shards;
  runner.for_each(shards, [&](std::size_t w) {
    const std::size_t begin = w * base + std::min(w, extra);
    const std::size_t end = begin + base + (w < extra ? 1 : 0);
    for (std::size_t i = begin; i < end; ++i) {
      const PackedStructure succ = one_cycles[i].packed_successors();
      const std::span<const DirectedEdge> act = active.row(i);
      std::uint32_t* out = scratch.data() + i * cap;
      std::uint32_t cnt = 0;
      for (std::size_t a = 0; a < act.size(); ++a) {
        const VertexId va = act[a].tail, ua = act[a].head;
        BCCLB_CHECK(packed_successor(succ, va) == ua,
                    "active edge is not a clockwise input edge");
        for (std::size_t b = a + 1; b < act.size(); ++b) {
          const VertexId vb = act[b].tail, ub = act[b].head;
          // Definition 3.2 in successor arithmetic: the endpoints are
          // distinct (tails/heads of distinct cycle edges can only collide
          // head-on-tail) and neither reconnection is already an input edge.
          if (ua == vb || ub == va) continue;
          if (packed_successor(succ, ub) == va || packed_successor(succ, ua) == vb) continue;
          // The crossing I(e_a, e_b): rewire va -> ub and vb -> ua. On a
          // one-cycle this always splits into a two-cycle structure.
          PackedStructure crossed = packed_with_successor(succ, va, ub);
          crossed = packed_with_successor(crossed, vb, ua);
          out[cnt++] = index.find(canonical_packed(crossed, n));
        }
      }
      std::sort(out, out + cnt);
      counts[i] = static_cast<std::uint32_t>(std::unique(out, out + cnt) - out);
    }
  });

  // Ordered merge into CSR, serially over ascending i.
  CsrAdjacency adj;
  adj.offsets.assign(v1 + 1, 0);
  for (std::size_t i = 0; i < v1; ++i) {
    adj.offsets[i + 1] = adj.offsets[i] + counts[i];
  }
  adj.targets.resize(adj.offsets[v1]);
  for (std::size_t i = 0; i < v1; ++i) {
    std::copy_n(scratch.data() + i * cap, counts[i], adj.targets.data() + adj.offsets[i]);
  }
  return adj;
}

IndistinguishabilityGraph build_indistinguishability_graph(
    std::vector<CycleStructure> one_cycles, std::vector<CycleStructure> two_cycles,
    const ActiveEdgeTable& active, unsigned num_threads) {
  IndistinguishabilityGraph g;
  g.adj = build_indistinguishability_adjacency(one_cycles, two_cycles, active, num_threads);
  g.one_cycles = std::move(one_cycles);
  g.two_cycles = std::move(two_cycles);
  return g;
}

IndistinguishabilityGraph build_indistinguishability_graph(std::size_t n,
                                                           const ActiveEdgeTable& active,
                                                           unsigned num_threads) {
  BCCLB_REQUIRE(n >= 6 && n <= 11, "exhaustive enumeration supports 6 <= n <= 11");
  return build_indistinguishability_graph(all_one_cycle_structures(n),
                                          all_two_cycle_structures(n), active, num_threads);
}

IndistinguishabilityGraph build_indistinguishability_graph(std::size_t n,
                                                           const ActiveEdgeFn& active,
                                                           unsigned num_threads) {
  BCCLB_REQUIRE(n >= 6 && n <= 11, "exhaustive enumeration supports 6 <= n <= 11");
  auto one_cycles = all_one_cycle_structures(n);
  auto two_cycles = all_two_cycle_structures(n);
  // Closures may be stateful or expensive (a simulator run per structure),
  // so evaluate them serially in enumeration order, exactly as the legacy
  // serial builder did; only the crossing kernel itself runs sharded.
  ActiveEdgeTable table;
  table.offsets.reserve(one_cycles.size() + 1);
  table.edges.reserve(one_cycles.size() * n);
  for (const CycleStructure& cs : one_cycles) {
    table.push_row(active(cs));
  }
  return build_indistinguishability_graph(std::move(one_cycles), std::move(two_cycles), table,
                                          num_threads);
}

NeighborDegreeProfile neighbor_degree_profile(const CycleStructure& one_cycle,
                                              const ActiveEdgeFn& active) {
  BCCLB_REQUIRE(one_cycle.is_one_cycle(), "profile is defined for one-cycle instances");
  NeighborDegreeProfile profile;
  const auto act = active(one_cycle);
  profile.active_edges = act.size();
  profile.split_counts.assign(one_cycle.num_vertices() + 1, 0);

  // Count distinct crossed two-cycles by the number of active edges landing
  // in their smaller-active-count cycle.
  std::vector<std::string> seen;
  for (std::size_t a = 0; a < act.size(); ++a) {
    for (std::size_t b = a + 1; b < act.size(); ++b) {
      if (!one_cycle.edges_independent(act[a], act[b])) continue;
      const CycleStructure crossed = one_cycle.crossed(act[a], act[b]);
      const std::string key = crossed.key();
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);

      // Active edges of the crossed instance: the surviving originals plus
      // the two new edges (all active when everything is active; for
      // restricted activity the proof of Lemma 3.7 notes the two new edges
      // are active as well). Count how many fall in each cycle.
      const auto crossed_active = active(crossed);
      std::size_t in_first = 0;
      const auto& first_cycle = crossed.cycles()[0];
      for (const DirectedEdge& e : crossed_active) {
        if (std::find(first_cycle.begin(), first_cycle.end(), e.tail) != first_cycle.end()) {
          ++in_first;
        }
      }
      const std::size_t other = crossed_active.size() - in_first;
      ++profile.split_counts[std::min(in_first, other)];
    }
  }
  return profile;
}

}  // namespace bcclb
