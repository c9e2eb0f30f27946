#include "bcc/instance_view.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"

namespace bcclb {

namespace {

// Domain-separation tags for the sub-seeds an instance derives from its one
// spec seed; arbitrary odd constants, fixed forever (digests and transcripts
// depend on them).
constexpr std::uint64_t kWiringTag = 0x5749524531ULL;  // "WIRE1"
constexpr std::uint64_t kGraphTag = 0x4752415048ULL;   // "GRAPH"
constexpr std::uint64_t kPermTag = 0x5045524d53ULL;    // "PERMS"

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (x >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The input graph as CSR from one neighbors(v) query per vertex: the
// general path, for sources with no closed-form layout to walk.
template <typename Source>
void adjacency_by_rows(const Source& source, std::size_t n, std::vector<std::uint64_t>& offsets,
                       std::vector<VertexId>& targets) {
  offsets.assign(n + 1, 0);
  targets.clear();
  std::vector<VertexId> nbrs;
  for (VertexId v = 0; v < n; ++v) {
    source.neighbors(v, nbrs);
    offsets[v + 1] = offsets[v] + nbrs.size();
    targets.insert(targets.end(), nbrs.begin(), nbrs.end());
  }
}

}  // namespace

const char* implicit_family_name(ImplicitFamily family) {
  switch (family) {
    case ImplicitFamily::kOneCycle: return "one-cycle";
    case ImplicitFamily::kTwoCycle: return "two-cycle";
    case ImplicitFamily::kMultiCycle: return "multi-cycle";
    case ImplicitFamily::kRandomRegular: return "random-regular";
  }
  return "?";
}

std::optional<ImplicitFamily> parse_implicit_family(std::string_view name) {
  if (name == "one-cycle") return ImplicitFamily::kOneCycle;
  if (name == "two-cycle") return ImplicitFamily::kTwoCycle;
  if (name == "multi-cycle") return ImplicitFamily::kMultiCycle;
  if (name == "random-regular") return ImplicitFamily::kRandomRegular;
  return std::nullopt;
}

ImplicitInstance::ImplicitInstance(const ImplicitSpec& spec)
    : spec_(spec), pi_(fnv_mix(0xcbf29ce484222325ULL, spec.seed ^ kGraphTag), spec.n) {
  BCCLB_REQUIRE(spec_.n >= 3, "implicit instances need n >= 3");
  BCCLB_REQUIRE(spec_.n <= 0xffffffffULL, "n must fit VertexId");
  switch (spec_.family) {
    case ImplicitFamily::kOneCycle:
      break;
    case ImplicitFamily::kTwoCycle:
      BCCLB_REQUIRE(spec_.n >= 6, "two-cycle needs n >= 6 (each cycle length >= 3)");
      break;
    case ImplicitFamily::kMultiCycle:
      BCCLB_REQUIRE(spec_.cycles >= 1, "multi-cycle needs at least one cycle");
      BCCLB_REQUIRE(spec_.n / spec_.cycles >= 3,
                    "multi-cycle needs n/cycles >= 3 (shortest cycle length >= 3)");
      break;
    case ImplicitFamily::kRandomRegular:
      BCCLB_REQUIRE(spec_.perms >= 1 && spec_.perms <= 32,
                    "random-regular needs 1 <= perms <= 32");
      extra_.reserve(spec_.perms);
      for (std::uint32_t j = 0; j < spec_.perms; ++j) {
        extra_.emplace_back(fnv_mix(fnv_mix(0xcbf29ce484222325ULL, spec_.seed ^ kPermTag), j),
                            spec_.n);
      }
      break;
  }
}

FeistelPermutation ImplicitInstance::row_permutation(VertexId v) const {
  return FeistelPermutation(fnv_mix(fnv_mix(0xcbf29ce484222325ULL, spec_.seed ^ kWiringTag), v),
                            spec_.n - 1);
}

VertexId ImplicitInstance::peer(VertexId v, Port p) const {
  const std::uint64_t n = spec_.n;
  BCCLB_REQUIRE(v < n && p + 1 < n, "peer query out of range");
  if (spec_.mode == KnowledgeMode::kKT1) {
    // Canonical KT-1 layout: port numbers enumerate peers in ID order.
    return p < v ? p : p + 1;
  }
  const std::uint64_t x = row_permutation(v).forward(p);
  return static_cast<VertexId>(x < v ? x : x + 1);
}

Port ImplicitInstance::port_at(VertexId v, VertexId u) const {
  const std::uint64_t n = spec_.n;
  BCCLB_REQUIRE(v < n && u < n && u != v, "port query out of range");
  const std::uint64_t x = u < v ? u : u - 1;
  if (spec_.mode == KnowledgeMode::kKT1) return static_cast<Port>(x);
  return static_cast<Port>(row_permutation(v).inverse(x));
}

void ImplicitInstance::segment_of(std::uint64_t position, std::uint64_t& start,
                                  std::uint64_t& length) const {
  const std::uint64_t n = spec_.n;
  switch (spec_.family) {
    case ImplicitFamily::kOneCycle:
      start = 0;
      length = n;
      return;
    case ImplicitFamily::kTwoCycle: {
      const std::uint64_t half = n / 2;
      if (position < half) {
        start = 0;
        length = half;
      } else {
        start = half;
        length = n - half;
      }
      return;
    }
    case ImplicitFamily::kMultiCycle: {
      // k cycles: the first n % k have length n/k + 1, the rest n/k.
      const std::uint64_t k = spec_.cycles;
      const std::uint64_t base = n / k;
      const std::uint64_t longer = n % k;
      const std::uint64_t long_span = longer * (base + 1);
      if (position < long_span) {
        const std::uint64_t seg = position / (base + 1);
        start = seg * (base + 1);
        length = base + 1;
      } else {
        const std::uint64_t seg = (position - long_span) / base;
        start = long_span + seg * base;
        length = base;
      }
      return;
    }
    case ImplicitFamily::kRandomRegular:
      break;
  }
  BCCLB_CHECK(false, "segment_of on a non-cycle family");
}

void ImplicitInstance::neighbors(VertexId v, std::vector<VertexId>& out) const {
  out.clear();
  BCCLB_REQUIRE(v < spec_.n, "vertex out of range");
  if (spec_.family == ImplicitFamily::kRandomRegular) {
    for (const FeistelPermutation& perm : extra_) {
      const VertexId a = static_cast<VertexId>(perm.forward(v));
      const VertexId b = static_cast<VertexId>(perm.inverse(v));
      if (a != v) out.push_back(a);
      if (b != v) out.push_back(b);
    }
  } else {
    std::uint64_t start = 0, length = 0;
    const std::uint64_t pos = position_of(v);
    segment_of(pos, start, length);
    const std::uint64_t offset = pos - start;
    out.push_back(vertex_at(start + (offset + 1) % length));
    out.push_back(vertex_at(start + (offset + length - 1) % length));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void ImplicitInstance::adjacency(std::vector<std::uint64_t>& offsets,
                                 std::vector<VertexId>& targets) const {
  const std::uint64_t n = spec_.n;
  if (spec_.family == ImplicitFamily::kRandomRegular) {
    adjacency_by_rows(*this, n, offsets, targets);
    return;
  }
  // Every segment has length >= 3, so each vertex has exactly two distinct
  // neighbours and row v is targets[2v, 2v + 2).
  offsets.resize(n + 1);
  for (std::uint64_t v = 0; v <= n; ++v) offsets[v] = 2 * v;
  targets.assign(2 * n, 0);
  const auto write_row = [&](VertexId v, VertexId a, VertexId b) {
    targets[2 * std::size_t{v}] = std::min(a, b);
    targets[2 * std::size_t{v} + 1] = std::max(a, b);
  };
  // One segment at a time, positions in order: when the walk reaches `next`,
  // both neighbours of `cur` are known. The segment's first vertex waits for
  // the wrap edge from its last, so its second vertex is kept too.
  for (std::uint64_t end = 0; end < n;) {
    std::uint64_t start = 0, length = 0;
    segment_of(end, start, length);
    const VertexId first = vertex_at(start);
    const VertexId second = vertex_at(start + 1);
    VertexId prev = first, cur = second;
    for (std::uint64_t pos = start + 2; pos < start + length; ++pos) {
      const VertexId next = vertex_at(pos);
      write_row(cur, prev, next);
      prev = cur;
      cur = next;
    }
    write_row(cur, prev, first);
    write_row(first, second, cur);
    end = start + length;
  }
}

std::vector<Port> ImplicitInstance::input_ports(VertexId v) const {
  std::vector<VertexId> nbrs;
  neighbors(v, nbrs);
  std::vector<Port> ports;
  ports.reserve(nbrs.size());
  for (VertexId u : nbrs) ports.push_back(port_at(v, u));
  std::sort(ports.begin(), ports.end());
  return ports;
}

std::uint64_t ImplicitInstance::num_components() const {
  switch (spec_.family) {
    case ImplicitFamily::kOneCycle: return 1;
    case ImplicitFamily::kTwoCycle: return 2;
    case ImplicitFamily::kMultiCycle: return spec_.cycles;
    case ImplicitFamily::kRandomRegular:
      break;
  }
  throw BcclbError("random-regular has no closed-form component count");
}

std::uint64_t ImplicitInstance::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, 0x494d504c31ULL);  // "IMPL1": separates spec digests from table digests
  h = fnv_mix(h, spec_.n);
  h = fnv_mix(h, static_cast<std::uint64_t>(spec_.family));
  h = fnv_mix(h, spec_.seed);
  h = fnv_mix(h, spec_.cycles);
  h = fnv_mix(h, spec_.perms);
  h = fnv_mix(h, static_cast<std::uint64_t>(spec_.mode));
  return h;
}

BccInstance ImplicitInstance::materialize() const {
  const std::uint64_t n = spec_.n;
  if (n > kMaxMaterializeN) {
    throw RangeViolationError("materialize() at n=" + std::to_string(n) + " exceeds the " +
                              std::to_string(kMaxMaterializeN) +
                              " ceiling; run implicit instances through the SoA engine");
  }
  std::vector<std::vector<VertexId>> tables(n);
  for (VertexId v = 0; v < n; ++v) {
    tables[v].reserve(n - 1);
    for (Port p = 0; p + 1 < n; ++p) tables[v].push_back(peer(v, p));
  }
  Graph graph(n);
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> targets;
  adjacency(offsets, targets);
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (v < targets[i]) graph.add_edge(v, targets[i]);
    }
  }
  return BccInstance(Wiring(std::move(tables)), std::move(graph), spec_.mode);
}

InstanceView::InstanceView(const BccInstance* instance) : impl_(instance) {
  BCCLB_REQUIRE(instance != nullptr, "view over a null instance");
}

InstanceView::InstanceView(ImplicitInstance implicit) : impl_(std::move(implicit)) {}

std::size_t InstanceView::num_vertices() const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->num_vertices();
  return std::get<const BccInstance*>(impl_)->num_vertices();
}

KnowledgeMode InstanceView::mode() const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->mode();
  return std::get<const BccInstance*>(impl_)->mode();
}

std::uint64_t InstanceView::id_of(VertexId v) const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->id_of(v);
  return std::get<const BccInstance*>(impl_)->id_of(v);
}

VertexId InstanceView::peer(VertexId v, Port p) const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->peer(v, p);
  return std::get<const BccInstance*>(impl_)->wiring().peer(v, p);
}

Port InstanceView::port_at(VertexId v, VertexId u) const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->port_at(v, u);
  return std::get<const BccInstance*>(impl_)->wiring().port_at(v, u);
}

void InstanceView::neighbors(VertexId v, std::vector<VertexId>& out) const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) {
    imp->neighbors(v, out);
    return;
  }
  const auto& adj = std::get<const BccInstance*>(impl_)->input().neighbors(v);
  out.assign(adj.begin(), adj.end());
  std::sort(out.begin(), out.end());
}

void InstanceView::adjacency(std::vector<std::uint64_t>& offsets,
                             std::vector<VertexId>& targets) const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) {
    imp->adjacency(offsets, targets);
    return;
  }
  adjacency_by_rows(*this, num_vertices(), offsets, targets);
}

std::vector<Port> InstanceView::input_ports(VertexId v) const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->input_ports(v);
  return std::get<const BccInstance*>(impl_)->input_ports(v);
}

std::uint64_t InstanceView::digest() const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->digest();
  return std::get<const BccInstance*>(impl_)->digest();
}

BccInstance InstanceView::to_explicit() const {
  if (const auto* imp = std::get_if<ImplicitInstance>(&impl_)) return imp->materialize();
  return *std::get<const BccInstance*>(impl_);
}

const BccInstance* InstanceView::explicit_instance() const {
  const auto* const* p = std::get_if<const BccInstance*>(&impl_);
  return p != nullptr ? *p : nullptr;
}

const ImplicitInstance* InstanceView::implicit_instance() const {
  return std::get_if<ImplicitInstance>(&impl_);
}

}  // namespace bcclb
