// The instance seam: one query surface over explicit and implicit instances.
//
// Every engine used to consume a concrete BccInstance — an O(n^2) wiring
// table plus an adjacency structure — which caps simulation at enumeration
// scale. The model itself has no such cap: a wiring is *any* family of
// per-vertex port bijections (bcc/wiring.h), and the hard input families are
// closed-form. An ImplicitInstance therefore stores only a spec (family,
// n, seed) and answers every query by evaluating seeded Feistel
// permutations (common/feistel.h):
//
//   wiring   KT-0: port p of v maps through a per-vertex permutation of
//            [n-1] keyed by (seed, v), then skips v itself — each row is a
//            bijection onto V \ {v}, so this is a valid clique wiring.
//            KT-1: the canonical layout peer(v, p) = p < v ? p : p + 1.
//   graph    a global permutation pi of [n] assigns vertices to positions;
//            the family (one cycle, two cycles, k cycles, union of random
//            permutations) is closed-form over positions, so neighbors(v)
//            is O(1) permutation evaluations. Whole-graph readers take
//            adjacency() instead: for the cycle families it walks positions
//            0..n-1 once, one forward pi evaluation per position, where n
//            neighbors() calls would cost three evaluations each.
//   ids      id_of(v) = v. The interesting randomness is where pi *places*
//            the IDs, not what they are.
//
// No O(n^2) — in fact no O(n) — state ever exists; an implicit instance is
// a few hundred bytes at n = 10^6. materialize() builds the equivalent
// explicit BccInstance for small n, which is how the equivalence tests pin
// the two paths together bit-for-bit.
//
// InstanceView is the polymorphism-free seam the engines take: a variant of
// (pointer-to-explicit, implicit-by-value) with the shared query surface.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "bcc/instance.h"
#include "common/feistel.h"

namespace bcclb {

enum class ImplicitFamily : std::uint8_t {
  kOneCycle = 0,       // a single Hamiltonian cycle (connected; TwoCycle YES)
  kTwoCycle = 1,       // two cycles of length n/2 and n - n/2 (TwoCycle NO)
  kMultiCycle = 2,     // `cycles` cycles of near-equal length
  kRandomRegular = 3,  // union of `perms` seeded permutations (degree <= 2*perms)
};

const char* implicit_family_name(ImplicitFamily family);

// Parses the CLI/env spelling ("one-cycle", "two-cycle", "multi-cycle",
// "random-regular"); nullopt on anything else.
std::optional<ImplicitFamily> parse_implicit_family(std::string_view name);

struct ImplicitSpec {
  std::uint64_t n = 0;
  ImplicitFamily family = ImplicitFamily::kTwoCycle;
  std::uint64_t seed = 0;
  std::uint32_t cycles = 3;  // kMultiCycle: number of cycles
  std::uint32_t perms = 2;   // kRandomRegular: permutations unioned
  KnowledgeMode mode = KnowledgeMode::kKT0;

  friend bool operator==(const ImplicitSpec&, const ImplicitSpec&) = default;
};

// Materialization ceiling: above this, building the O(n^2) wiring is a
// caller bug, not a slow path (16 MiB of table at the limit).
inline constexpr std::uint64_t kMaxMaterializeN = 4096;

class ImplicitInstance {
 public:
  explicit ImplicitInstance(const ImplicitSpec& spec);

  const ImplicitSpec& spec() const { return spec_; }
  std::size_t num_vertices() const { return static_cast<std::size_t>(spec_.n); }
  KnowledgeMode mode() const { return spec_.mode; }
  std::uint64_t id_of(VertexId v) const { return v; }

  // The clique wiring, both directions; O(1) per query.
  VertexId peer(VertexId v, Port p) const;
  Port port_at(VertexId v, VertexId u) const;

  // Input-graph neighbors of v, ascending and deduplicated, appended to
  // `out` (which is cleared first). O(1) permutation evaluations.
  void neighbors(VertexId v, std::vector<VertexId>& out) const;

  // The whole input graph as CSR: row v is targets[offsets[v],
  // offsets[v+1]) and equals neighbors(v), same entries in the same order.
  // Both vectors are overwritten. The cycle families are built in one walk
  // over positions, one pi evaluation each and no O(n) scratch beyond the
  // output; kRandomRegular takes one neighbors() call per vertex.
  void adjacency(std::vector<std::uint64_t>& offsets, std::vector<VertexId>& targets) const;

  // Ports of v carrying input edges, sorted — the LocalView field.
  std::vector<Port> input_ports(VertexId v) const;

  // Ground truth for the cycle families (1, 2, or `cycles`); throws for
  // kRandomRegular, whose component count is not closed-form.
  std::uint64_t num_components() const;

  // A stable FNV-1a fingerprint of the *spec* — O(1), never touching the
  // wiring. This is the streaming-digest path BccInstance::digest() cannot
  // offer: implicit instances are content-addressed by what generates them.
  std::uint64_t digest() const;

  // The equivalent explicit instance: same wiring, same graph, same IDs,
  // same mode. Requires n <= kMaxMaterializeN (throws RangeViolationError
  // beyond it); the bridge to every explicit-only engine and to the
  // equivalence tests.
  BccInstance materialize() const;

 private:
  std::uint64_t position_of(VertexId v) const { return pi_.inverse(v); }
  VertexId vertex_at(std::uint64_t position) const {
    return static_cast<VertexId>(pi_.forward(position));
  }
  // The cycle segment [start, start + length) containing `position`.
  void segment_of(std::uint64_t position, std::uint64_t& start, std::uint64_t& length) const;
  FeistelPermutation row_permutation(VertexId v) const;

  ImplicitSpec spec_;
  FeistelPermutation pi_;                   // vertex <-> position
  std::vector<FeistelPermutation> extra_;   // kRandomRegular permutations
};

// The seam. Explicit instances are held by pointer (the caller keeps them
// alive, as RoundEngine always required); implicit instances are tiny and
// held by value, so a view is freely copyable either way.
class InstanceView {
 public:
  // Non-owning; `instance` must outlive the view.
  explicit InstanceView(const BccInstance* instance);
  explicit InstanceView(ImplicitInstance implicit);
  explicit InstanceView(const ImplicitSpec& spec) : InstanceView(ImplicitInstance(spec)) {}

  bool is_implicit() const { return std::holds_alternative<ImplicitInstance>(impl_); }

  std::size_t num_vertices() const;
  KnowledgeMode mode() const;
  std::uint64_t id_of(VertexId v) const;
  VertexId peer(VertexId v, Port p) const;
  Port port_at(VertexId v, VertexId u) const;
  void neighbors(VertexId v, std::vector<VertexId>& out) const;
  // The input graph as CSR, row v equal to neighbors(v); the bulk read every
  // whole-graph consumer uses. Explicit views take one neighbors() call per
  // vertex, implicit ones ImplicitInstance::adjacency.
  void adjacency(std::vector<std::uint64_t>& offsets, std::vector<VertexId>& targets) const;
  std::vector<Port> input_ports(VertexId v) const;

  // Explicit: BccInstance::digest() (O(n^2), error paths only). Implicit:
  // the O(1) spec digest.
  std::uint64_t digest() const;

  // The underlying explicit instance, materializing an implicit one (same
  // size ceiling as ImplicitInstance::materialize). The bridge engines use
  // to run explicit-API algorithms against a view.
  BccInstance to_explicit() const;

  // Non-null iff the view wraps that representation.
  const BccInstance* explicit_instance() const;
  const ImplicitInstance* implicit_instance() const;

 private:
  std::variant<const BccInstance*, ImplicitInstance> impl_;
};

}  // namespace bcclb
