// Maximum bipartite matchings and k-matchings (Theorem 2.1's objects).
//
// The Polygamous Hall's Theorem argument packs the indistinguishability
// graph with stars: each one-cycle instance is matched to k distinct
// two-cycle instances. We realize it constructively: a k-matching of size
// |L| exists iff the k-fold left-cloned graph has a perfect matching on L,
// which Hopcroft–Karp decides. A maximum 1-matching also directly yields
// the distributional error bound: an algorithm answers identically on the
// two endpoints of every matched indistinguishable pair, so it errs on the
// lighter endpoint.
//
// The matcher runs directly on a borrowed CSR adjacency (csr_adjacency.h).
// k-cloning is implicit — left clone l reads row l / k — so E4's per-
// adversary/per-round k-matching probes never deep-copy the graph.
#pragma once

#include <cstdint>
#include <vector>

#include "crossing/csr_adjacency.h"

namespace bcclb {

class HopcroftKarp {
 public:
  // Borrows `adj` (caller keeps it alive for the matcher's lifetime); left
  // vertex l of num_rows * clone_k logical lefts reads row l / clone_k, so
  // clone_k > 1 runs Theorem 2.1's cloned graph without materializing it.
  explicit HopcroftKarp(const CsrAdjacency& adj, std::size_t num_right,
                        unsigned clone_k = 1);

  // Size of a maximum matching.
  std::size_t max_matching();

  // match_left()[l] = matched right vertex or kUnmatched (valid after
  // max_matching()); indexed by logical (cloned) left vertex.
  static constexpr std::uint32_t kUnmatched = static_cast<std::uint32_t>(-1);
  const std::vector<std::uint32_t>& match_left() const { return match_l_; }

 private:
  std::span<const std::uint32_t> row(std::uint32_t l) const {
    return adj_->row(clone_k_ == 1 ? l : l / clone_k_);
  }
  bool bfs();
  bool dfs(std::uint32_t l);

  const CsrAdjacency* adj_;   // borrowed rows
  unsigned clone_k_;
  std::size_t num_left_;      // num_rows * clone_k
  std::size_t num_right_;
  std::vector<std::uint32_t> match_l_, match_r_;
  std::vector<std::uint32_t> dist_;
};

// Size of the maximum matching of the bipartite graph (adj, num_right).
std::size_t max_bipartite_matching(const CsrAdjacency& adj, std::size_t num_right);

// True iff a k-matching saturating every left vertex of positive degree
// exists (left vertices with empty adjacency are skipped — an isolated
// instance has no indistinguishable partner and is excluded from S in
// Lemma 3.8's statement).
bool has_saturating_k_matching(const CsrAdjacency& adj, std::size_t num_right, unsigned k);

// The largest k for which has_saturating_k_matching holds (0 when even k=1
// fails).
unsigned max_saturating_k(const CsrAdjacency& adj, std::size_t num_right, unsigned k_limit);

}  // namespace bcclb
