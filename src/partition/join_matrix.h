// The join matrices of Section 2 and Section 4.1.
//
// M_n is the B_n x B_n 0-1 matrix with M_n(i, j) = 1 iff P_i ∨ P_j = 1 (the
// one-block partition); Theorem 2.3 (Dowling–Wilson) says rank(M_n) = B_n.
// E_n is its sub-matrix indexed by perfect-matching partitions; Lemma 4.1
// says E_n is also full rank. Both feed the log-rank communication lower
// bounds (Corollaries 2.4 and 4.2) that the E5/E6 experiments verify.
#pragma once

#include <cstdint>
#include <vector>

namespace bcclb {

// Row-major dense 0/1 matrix; small sizes only (B_8 = 4140 rows).
struct BoolMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint8_t> data;  // rows * cols entries, each 0 or 1

  std::uint8_t at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  std::uint8_t& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }

  // Rows bit-packed 64 columns per word, (cols + 63) / 64 words per row:
  // the input layout of packed_rank (linalg/tiled_rank.h).
  std::vector<std::uint64_t> packed_rows() const;
};

// M_n over all partitions of [n] in RGS-lexicographic order.
BoolMatrix partition_join_matrix(std::size_t n);

// E_n over perfect-matching partitions of [n] (n even) in
// all_perfect_matchings order.
BoolMatrix two_partition_join_matrix(std::size_t n);

}  // namespace bcclb
