#include "crossing/matching.h"

#include <limits>
#include <queue>

#include "common/check.h"

namespace bcclb {

HopcroftKarp::HopcroftKarp(const CsrAdjacency& adj, std::size_t num_right, unsigned clone_k)
    : adj_(&adj),
      clone_k_(clone_k),
      num_left_(adj.num_rows() * clone_k),
      num_right_(num_right),
      match_l_(num_left_, kUnmatched),
      match_r_(num_right, kUnmatched),
      dist_(num_left_, 0) {
  BCCLB_REQUIRE(clone_k >= 1, "clone factor must be positive");
  for (std::uint32_t r : adj.targets) {
    BCCLB_REQUIRE(r < num_right, "right index out of range");
  }
}

bool HopcroftKarp::bfs() {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::queue<std::uint32_t> q;
  for (std::uint32_t l = 0; l < num_left_; ++l) {
    if (match_l_[l] == kUnmatched) {
      dist_[l] = 0;
      q.push(l);
    } else {
      dist_[l] = kInf;
    }
  }
  bool found_augmenting = false;
  while (!q.empty()) {
    const std::uint32_t l = q.front();
    q.pop();
    for (std::uint32_t r : row(l)) {
      const std::uint32_t next = match_r_[r];
      if (next == kUnmatched) {
        found_augmenting = true;
      } else if (dist_[next] == kInf) {
        dist_[next] = dist_[l] + 1;
        q.push(next);
      }
    }
  }
  return found_augmenting;
}

bool HopcroftKarp::dfs(std::uint32_t l) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t r : row(l)) {
    const std::uint32_t next = match_r_[r];
    if (next == kUnmatched || (dist_[next] == dist_[l] + 1 && dfs(next))) {
      match_l_[l] = r;
      match_r_[r] = l;
      return true;
    }
  }
  dist_[l] = kInf;
  return false;
}

std::size_t HopcroftKarp::max_matching() {
  std::size_t matched = 0;
  while (bfs()) {
    for (std::uint32_t l = 0; l < num_left_; ++l) {
      if (match_l_[l] == kUnmatched && dfs(l)) ++matched;
    }
  }
  return matched;
}

std::size_t max_bipartite_matching(const CsrAdjacency& adj, std::size_t num_right) {
  HopcroftKarp hk(adj, num_right);
  return hk.max_matching();
}

bool has_saturating_k_matching(const CsrAdjacency& adj, std::size_t num_right, unsigned k) {
  BCCLB_REQUIRE(k >= 1, "k must be positive");
  // Theorem 2.1's construction, clone-free: left vertex l of the k-cloned
  // graph reads row l / k. Empty rows clone to empty rows, which can never
  // be matched and never enter an augmenting path, so including them leaves
  // the maximum matching exactly the positive-degree construction's.
  std::size_t positive = 0;
  for (std::size_t i = 0; i < adj.num_rows(); ++i) {
    if (adj.row_size(i) > 0) ++positive;
  }
  if (positive == 0) return true;
  HopcroftKarp hk(adj, num_right, k);
  return hk.max_matching() == positive * k;
}

unsigned max_saturating_k(const CsrAdjacency& adj, std::size_t num_right, unsigned k_limit) {
  unsigned best = 0;
  for (unsigned k = 1; k <= k_limit; ++k) {
    if (!has_saturating_k_matching(adj, num_right, k)) break;
    best = k;
  }
  return best;
}

}  // namespace bcclb
