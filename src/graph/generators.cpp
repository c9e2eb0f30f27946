#include "graph/generators.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace bcclb {

namespace {

std::vector<VertexId> random_permutation(std::size_t n, Rng& rng) {
  std::vector<VertexId> p(n);
  std::iota(p.begin(), p.end(), 0);
  rng.shuffle(p);
  return p;
}

}  // namespace

CycleStructure random_one_cycle(std::size_t n, Rng& rng) {
  BCCLB_REQUIRE(n >= 3, "need n >= 3");
  const auto order = random_permutation(n, rng);
  return CycleStructure::single_cycle(order);
}

CycleStructure random_two_cycle(std::size_t n, Rng& rng) {
  BCCLB_REQUIRE(n >= 6, "two cycles of length >= 3 need n >= 6");
  const std::size_t first = 3 + rng.next_below(n - 5);  // in [3, n-3]
  const auto perm = random_permutation(n, rng);
  std::vector<VertexId> a(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(first));
  std::vector<VertexId> b(perm.begin() + static_cast<std::ptrdiff_t>(first), perm.end());
  return CycleStructure::from_cycles(n, {std::move(a), std::move(b)});
}

Graph random_gnp(std::size_t n, double p, Rng& rng) {
  BCCLB_REQUIRE(p >= 0.0 && p <= 1.0, "p must be a probability");
  Graph g(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(p)) g.add_edge(u, v);
    }
  }
  return g;
}

Graph random_forest(std::size_t n, std::size_t trees, Rng& rng) {
  BCCLB_REQUIRE(trees >= 1 && trees <= n, "tree count out of range");
  // Random spanning forest: shuffle vertices; the first `trees` are roots;
  // every later vertex attaches to a uniformly random earlier vertex in the
  // same block (blocks are contiguous runs assigned round-robin).
  const auto perm = random_permutation(n, rng);
  Graph g(n);
  std::vector<std::vector<VertexId>> blocks(trees);
  for (std::size_t i = 0; i < n; ++i) blocks[i % trees].push_back(perm[i]);
  for (const auto& block : blocks) {
    for (std::size_t i = 1; i < block.size(); ++i) {
      const std::size_t parent = rng.next_below(i);
      g.add_edge(block[i], block[parent]);
    }
  }
  return g;
}

}  // namespace bcclb
