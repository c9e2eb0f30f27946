// InstanceView / ImplicitInstance: the Feistel permutation primitive, the
// implicit wiring and graph families, materialization equivalence, the O(1)
// spec digest, and the view seam over both representations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bcc/instance.h"
#include "bcc/instance_view.h"
#include "common/errors.h"
#include "common/feistel.h"

namespace bcclb {
namespace {

// ---- FeistelPermutation -----------------------------------------------------

TEST(Feistel, BijectionAndInverseAtAwkwardSizes) {
  // Powers of four are the friendly case (no cycle-walking); everything else
  // exercises the walk. Cover both plus the degenerate sizes.
  for (const std::uint64_t size :
       {1ull, 2ull, 3ull, 4ull, 5ull, 7ull, 11ull, 16ull, 17ull, 31ull, 48ull, 50ull, 63ull,
        64ull, 65ull, 100ull, 1000ull, 4096ull}) {
    const FeistelPermutation pi(2019, size);
    std::vector<bool> hit(size, false);
    for (std::uint64_t x = 0; x < size; ++x) {
      const std::uint64_t y = pi.forward(x);
      ASSERT_LT(y, size) << "size " << size;
      ASSERT_FALSE(hit[y]) << "size " << size << ": collision at " << y;
      hit[y] = true;
      ASSERT_EQ(pi.inverse(y), x) << "size " << size;
    }
  }
}

TEST(Feistel, DeterministicPerSeedAndDistinctAcrossSeeds) {
  const FeistelPermutation a(7, 1000), b(7, 1000), c(8, 1000);
  bool differs = false;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    EXPECT_EQ(a.forward(x), b.forward(x));
    differs = differs || a.forward(x) != c.forward(x);
  }
  EXPECT_TRUE(differs) << "seeds 7 and 8 produced the same permutation of [1000]";
}

TEST(Feistel, RejectsOutOfRangeQueries) {
  const FeistelPermutation pi(1, 10);
  EXPECT_THROW(pi.forward(10), std::invalid_argument);
  EXPECT_THROW(pi.inverse(10), std::invalid_argument);
}

// ---- family parsing ---------------------------------------------------------

TEST(ImplicitFamily, NameRoundTrip) {
  for (const ImplicitFamily family :
       {ImplicitFamily::kOneCycle, ImplicitFamily::kTwoCycle, ImplicitFamily::kMultiCycle,
        ImplicitFamily::kRandomRegular}) {
    const auto parsed = parse_implicit_family(implicit_family_name(family));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(parse_implicit_family("three-cycle").has_value());
  EXPECT_FALSE(parse_implicit_family("").has_value());
  EXPECT_FALSE(parse_implicit_family("One-Cycle").has_value());
}

// ---- wiring -----------------------------------------------------------------

std::vector<ImplicitSpec> small_specs() {
  std::vector<ImplicitSpec> specs;
  for (const std::uint64_t n : {6ull, 9ull, 12ull}) {
    for (const std::uint64_t seed : {1ull, 2019ull}) {
      for (const KnowledgeMode mode : {KnowledgeMode::kKT0, KnowledgeMode::kKT1}) {
        for (const ImplicitFamily family :
             {ImplicitFamily::kOneCycle, ImplicitFamily::kTwoCycle, ImplicitFamily::kMultiCycle,
              ImplicitFamily::kRandomRegular}) {
          // The default 3-cycle multi-cycle split needs 3 vertices per cycle.
          if (family == ImplicitFamily::kMultiCycle && n < 9) continue;
          ImplicitSpec spec;
          spec.n = n;
          spec.family = family;
          spec.seed = seed;
          spec.mode = mode;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

TEST(ImplicitInstance, WiringRowsAreBijectionsWithExactInverses) {
  for (const ImplicitSpec& spec : small_specs()) {
    const ImplicitInstance inst(spec);
    const std::size_t n = inst.num_vertices();
    for (VertexId v = 0; v < n; ++v) {
      std::set<VertexId> seen;
      for (Port p = 0; p + 1 < n; ++p) {
        const VertexId u = inst.peer(v, p);
        ASSERT_LT(u, n);
        ASSERT_NE(u, v) << "self-loop port";
        ASSERT_TRUE(seen.insert(u).second) << "port table row " << v << " repeats peer " << u;
        ASSERT_EQ(inst.port_at(v, u), p);
      }
    }
  }
}

TEST(ImplicitInstance, Kt1WiringIsCanonical) {
  ImplicitSpec spec;
  spec.n = 10;
  spec.mode = KnowledgeMode::kKT1;
  const ImplicitInstance inst(spec);
  for (VertexId v = 0; v < 10; ++v) {
    for (Port p = 0; p + 1 < 10; ++p) {
      EXPECT_EQ(inst.peer(v, p), p < v ? p : p + 1);
    }
  }
}

// ---- graph families ---------------------------------------------------------

TEST(ImplicitInstance, NeighborsAreSortedSymmetricAndSelfFree) {
  for (const ImplicitSpec& spec : small_specs()) {
    const ImplicitInstance inst(spec);
    const std::size_t n = inst.num_vertices();
    std::vector<std::vector<VertexId>> adj(n);
    std::vector<VertexId> nbrs;
    for (VertexId v = 0; v < n; ++v) {
      inst.neighbors(v, nbrs);
      ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
      ASSERT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end()) << "duplicate";
      for (const VertexId u : nbrs) {
        ASSERT_LT(u, n);
        ASSERT_NE(u, v);
      }
      adj[v] = nbrs;
    }
    for (VertexId v = 0; v < n; ++v) {
      for (const VertexId u : adj[v]) {
        ASSERT_TRUE(std::binary_search(adj[u].begin(), adj[u].end(), v))
            << implicit_family_name(spec.family) << " n=" << spec.n << ": edge " << v << "-"
            << u << " not symmetric";
      }
    }
  }
}

// adjacency() row v must be neighbors(v) exactly: same entries, same order.
void expect_adjacency_rows_match_neighbors(const InstanceView& view, const std::string& what) {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> targets;
  view.adjacency(offsets, targets);
  const std::size_t n = view.num_vertices();
  ASSERT_EQ(offsets.size(), n + 1) << what;
  ASSERT_EQ(offsets.front(), 0u) << what;
  ASSERT_EQ(offsets.back(), targets.size()) << what;
  std::vector<VertexId> nbrs;
  for (VertexId v = 0; v < n; ++v) {
    view.neighbors(v, nbrs);
    ASSERT_LE(offsets[v], offsets[v + 1]) << what;
    const std::vector<VertexId> row(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                                    targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    ASSERT_EQ(row, nbrs) << what << " v=" << v;
  }
}

TEST(ImplicitInstance, AdjacencyRowsEqualNeighbors) {
  struct Shape {
    ImplicitFamily family;
    std::uint64_t n;
    std::uint32_t cycles;
  };
  std::vector<Shape> shapes{{ImplicitFamily::kOneCycle, 3, 3}};
  for (const std::uint64_t n : {6ull, 7ull, 13ull, 101ull}) {
    shapes.push_back({ImplicitFamily::kOneCycle, n, 3});
    shapes.push_back({ImplicitFamily::kTwoCycle, n, 3});
    shapes.push_back({ImplicitFamily::kRandomRegular, n, 3});
  }
  // Uneven segments (n % cycles != 0) put the long cycles first; n = 6 and 7
  // are too short for three cycles of length >= 3, so they split in two.
  shapes.push_back({ImplicitFamily::kMultiCycle, 6, 2});
  shapes.push_back({ImplicitFamily::kMultiCycle, 7, 2});
  for (const std::uint64_t n : {13ull, 101ull}) {
    shapes.push_back({ImplicitFamily::kMultiCycle, n, 3});
  }
  shapes.push_back({ImplicitFamily::kMultiCycle, 101, 7});
  shapes.push_back({ImplicitFamily::kMultiCycle, 24, 7});
  for (const Shape& shape : shapes) {
    for (const std::uint64_t seed : {1ull, 7ull, 2019ull}) {
      for (const KnowledgeMode mode : {KnowledgeMode::kKT0, KnowledgeMode::kKT1}) {
        ImplicitSpec spec;
        spec.n = shape.n;
        spec.family = shape.family;
        spec.seed = seed;
        spec.cycles = shape.cycles;
        spec.mode = mode;
        const InstanceView implicit_view(spec);
        const std::string what = std::string(implicit_family_name(shape.family)) +
                                 " n=" + std::to_string(shape.n) +
                                 " cycles=" + std::to_string(shape.cycles) +
                                 " seed=" + std::to_string(seed);
        expect_adjacency_rows_match_neighbors(implicit_view, what);
        if (shape.family != ImplicitFamily::kRandomRegular) {
          std::vector<std::uint64_t> offsets;
          std::vector<VertexId> targets;
          implicit_view.adjacency(offsets, targets);
          EXPECT_EQ(targets.size(), 2 * shape.n) << what;
        }
        // The explicit view of the same instance takes the per-vertex path.
        const BccInstance mat = implicit_view.to_explicit();
        expect_adjacency_rows_match_neighbors(InstanceView(&mat), what + " (explicit)");
      }
    }
  }
}

TEST(InstanceView, ExplicitAdjacencyRowsEqualNeighbors) {
  // Edges inserted out of order, degrees 0 to 3: the explicit path sorts
  // each row as neighbors() does.
  Graph graph(6);
  graph.add_edge(0, 3);
  graph.add_edge(0, 1);
  graph.add_edge(4, 2);
  graph.add_edge(1, 4);
  graph.add_edge(0, 2);
  const BccInstance inst = BccInstance::kt1(std::move(graph));
  expect_adjacency_rows_match_neighbors(InstanceView(&inst), "hand-built explicit");
}

TEST(ImplicitInstance, CycleFamiliesAreTwoRegularWithTrueComponentCounts) {
  for (const ImplicitSpec& spec : small_specs()) {
    if (spec.family == ImplicitFamily::kRandomRegular) continue;
    const ImplicitInstance inst(spec);
    const std::size_t n = inst.num_vertices();
    std::vector<VertexId> nbrs;
    for (VertexId v = 0; v < n; ++v) {
      inst.neighbors(v, nbrs);
      ASSERT_EQ(nbrs.size(), 2u) << implicit_family_name(spec.family) << " n=" << n;
    }
    // Count components by walking the neighbor structure directly.
    std::vector<bool> visited(n, false);
    std::uint64_t components = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (visited[v]) continue;
      ++components;
      std::vector<VertexId> stack{v};
      visited[v] = true;
      while (!stack.empty()) {
        const VertexId cur = stack.back();
        stack.pop_back();
        inst.neighbors(cur, nbrs);
        for (const VertexId u : nbrs) {
          if (!visited[u]) {
            visited[u] = true;
            stack.push_back(u);
          }
        }
      }
    }
    EXPECT_EQ(components, inst.num_components())
        << implicit_family_name(spec.family) << " n=" << n << " seed=" << spec.seed;
  }
}

TEST(ImplicitInstance, RandomRegularHasNoClosedFormComponentCount) {
  ImplicitSpec spec;
  spec.n = 12;
  spec.family = ImplicitFamily::kRandomRegular;
  EXPECT_THROW(ImplicitInstance(spec).num_components(), BcclbError);
}

TEST(ImplicitInstance, ConstructorValidatesFamilyConstraints) {
  ImplicitSpec spec;
  spec.n = 2;
  EXPECT_THROW(ImplicitInstance{spec}, std::invalid_argument);  // n < 3
  spec.n = 5;
  spec.family = ImplicitFamily::kTwoCycle;
  EXPECT_THROW(ImplicitInstance{spec}, std::invalid_argument);  // halves < 3
  spec.n = 8;
  spec.family = ImplicitFamily::kMultiCycle;
  spec.cycles = 3;
  EXPECT_THROW(ImplicitInstance{spec}, std::invalid_argument);  // 8/3 < 3
  spec.n = 9;
  EXPECT_NO_THROW(ImplicitInstance{spec});
}

// ---- materialization --------------------------------------------------------

TEST(ImplicitInstance, MaterializeReproducesEveryQuery) {
  for (const ImplicitSpec& spec : small_specs()) {
    const ImplicitInstance inst(spec);
    const BccInstance mat = inst.materialize();
    const std::size_t n = inst.num_vertices();
    ASSERT_EQ(mat.num_vertices(), n);
    ASSERT_EQ(mat.mode(), spec.mode);
    std::vector<VertexId> nbrs;
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(mat.id_of(v), inst.id_of(v));
      for (Port p = 0; p + 1 < n; ++p) {
        ASSERT_EQ(mat.wiring().peer(v, p), inst.peer(v, p)) << "v=" << v << " p=" << p;
      }
      inst.neighbors(v, nbrs);
      std::vector<VertexId> expected = mat.input().neighbors(v);
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(nbrs, expected) << "v=" << v;
      ASSERT_EQ(inst.input_ports(v), mat.input_ports(v)) << "v=" << v;
    }
  }
}

TEST(ImplicitInstance, MaterializeRefusesAboveCeiling) {
  ImplicitSpec spec;
  spec.n = kMaxMaterializeN + 1;
  const ImplicitInstance inst(spec);
  EXPECT_THROW(inst.materialize(), RangeViolationError);
  EXPECT_THROW(InstanceView(spec).to_explicit(), RangeViolationError);
}

// ---- digests ----------------------------------------------------------------

TEST(ImplicitInstance, DigestIsStableAndSeparatesSpecs) {
  std::set<std::uint64_t> digests;
  for (const ImplicitSpec& spec : small_specs()) {
    const std::uint64_t d = ImplicitInstance(spec).digest();
    EXPECT_EQ(d, ImplicitInstance(spec).digest());
    EXPECT_TRUE(digests.insert(d).second) << "digest collision across distinct specs";
  }
  // The digest is the spec's fingerprint, not the wiring's: a view over the
  // implicit form and one over its materialization answer differently (the
  // explicit path hashes actual tables).
  ImplicitSpec spec;
  spec.n = 12;
  const InstanceView implicit_view(spec);
  EXPECT_EQ(implicit_view.digest(), ImplicitInstance(spec).digest());
}

// ---- the view seam ----------------------------------------------------------

TEST(InstanceView, ExplicitAndImplicitViewsAgreeOnEveryQuery) {
  for (const ImplicitSpec& spec : small_specs()) {
    const InstanceView implicit_view(spec);
    const BccInstance mat = implicit_view.to_explicit();
    const InstanceView explicit_view(&mat);
    ASSERT_TRUE(implicit_view.is_implicit());
    ASSERT_FALSE(explicit_view.is_implicit());
    ASSERT_EQ(explicit_view.num_vertices(), implicit_view.num_vertices());
    ASSERT_EQ(explicit_view.mode(), implicit_view.mode());
    const std::size_t n = implicit_view.num_vertices();
    std::vector<VertexId> a, b;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(explicit_view.id_of(v), implicit_view.id_of(v));
      for (Port p = 0; p + 1 < n; ++p) {
        ASSERT_EQ(explicit_view.peer(v, p), implicit_view.peer(v, p));
      }
      explicit_view.neighbors(v, a);
      implicit_view.neighbors(v, b);
      ASSERT_EQ(a, b);
      ASSERT_EQ(explicit_view.input_ports(v), implicit_view.input_ports(v));
    }
  }
}

TEST(InstanceView, AccessorsExposeTheWrappedRepresentation) {
  ImplicitSpec spec;
  spec.n = 8;
  const InstanceView implicit_view(spec);
  EXPECT_EQ(implicit_view.explicit_instance(), nullptr);
  ASSERT_NE(implicit_view.implicit_instance(), nullptr);
  EXPECT_EQ(implicit_view.implicit_instance()->spec(), spec);

  const BccInstance mat = implicit_view.to_explicit();
  const InstanceView explicit_view(&mat);
  EXPECT_EQ(explicit_view.explicit_instance(), &mat);
  EXPECT_EQ(explicit_view.implicit_instance(), nullptr);
  EXPECT_EQ(explicit_view.digest(), mat.digest());
}

}  // namespace
}  // namespace bcclb
