// Flat compressed-sparse-row bipartite adjacency.
//
// The indistinguishability graph at n = 10 has 181,440 left vertices and
// ~4.5M edges; one vector per vertex costs an allocation, a pointer chase
// and ~48 bytes of header each. CSR stores the whole adjacency as two flat
// arrays — offsets[i]..offsets[i+1] delimits row i inside targets — so the
// matcher and the degree scans stream it linearly, and equality/digests are
// a pair of memcmps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bcclb {

struct CsrAdjacency {
  // offsets.size() == num_rows() + 1, offsets.front() == 0,
  // offsets.back() == targets.size(); rows are contiguous and ascending.
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> targets;

  std::size_t num_rows() const { return offsets.size() - 1; }
  std::size_t num_entries() const { return targets.size(); }
  std::size_t row_size(std::size_t i) const { return offsets[i + 1] - offsets[i]; }

  std::span<const std::uint32_t> row(std::size_t i) const {
    return std::span<const std::uint32_t>(targets).subspan(offsets[i], row_size(i));
  }

  friend bool operator==(const CsrAdjacency&, const CsrAdjacency&) = default;
};

}  // namespace bcclb
