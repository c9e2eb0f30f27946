// Column-at-a-time reference eliminations over GF(2) and GF(p): the ground
// truth the tiled kernel (linalg/tiled_rank.h) must reproduce exactly.
// Serial, unpacked, and slow on purpose — small test matrices only.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "partition/join_matrix.h"

namespace bcclb {

inline std::size_t schoolbook_gf2_rank(const BoolMatrix& m) {
  const std::size_t rows = m.rows, cols = m.cols;
  std::vector<std::vector<bool>> work(rows, std::vector<bool>(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) work[r][c] = m.at(r, c) != 0;
  }
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    std::size_t pivot = rows;
    for (std::size_t r = rank; r < rows; ++r) {
      if (work[r][col]) {
        pivot = r;
        break;
      }
    }
    if (pivot == rows) continue;
    std::swap(work[pivot], work[rank]);
    for (std::size_t r = rank + 1; r < rows; ++r) {
      if (work[r][col]) {
        for (std::size_t c = col; c < cols; ++c) work[r][c] = work[r][c] ^ work[rank][c];
      }
    }
    ++rank;
  }
  return rank;
}

inline std::size_t schoolbook_modp_rank(const BoolMatrix& m, std::uint64_t p) {
  const auto mulmod = [p](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * b) % p);
  };
  const auto inverse = [&](std::uint64_t x) {  // Fermat: x^(p-2)
    std::uint64_t result = 1;
    for (std::uint64_t e = p - 2; e != 0; e >>= 1) {
      if (e & 1) result = mulmod(result, x);
      x = mulmod(x, x);
    }
    return result;
  };
  const std::size_t rows = m.rows, cols = m.cols;
  std::vector<std::uint64_t> work(rows * cols);
  for (std::size_t i = 0; i < work.size(); ++i) work[i] = m.data[i] % p;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < cols && rank < rows; ++col) {
    std::size_t pivot = rows;
    for (std::size_t r = rank; r < rows; ++r) {
      if (work[r * cols + col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot == rows) continue;
    for (std::size_t c = col; c < cols; ++c) {
      std::swap(work[pivot * cols + c], work[rank * cols + c]);
    }
    const std::uint64_t inv = inverse(work[rank * cols + col]);
    for (std::size_t r = rank + 1; r < rows; ++r) {
      const std::uint64_t factor = work[r * cols + col];
      if (factor == 0) continue;
      const std::uint64_t scale = mulmod(factor, inv);
      for (std::size_t c = col; c < cols; ++c) {
        const std::uint64_t sub = mulmod(scale, work[rank * cols + c]);
        work[r * cols + c] = (work[r * cols + c] + p - sub) % p;
      }
    }
    ++rank;
  }
  return rank;
}

}  // namespace bcclb
