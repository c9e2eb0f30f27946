#include "partition/join_matrix.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "partition/bell.h"
#include "partition/enumeration.h"
#include "partition/pair_partition.h"

namespace bcclb {

std::vector<std::uint64_t> BoolMatrix::packed_rows() const {
  const std::size_t words = (cols + 63) / 64;
  std::vector<std::uint64_t> bits(rows * words, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* row = data.data() + r * cols;
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t end = std::min(cols, w * 64 + 64);
      std::uint64_t word = 0;
      for (std::size_t c = w * 64; c < end; ++c) {
        word |= static_cast<std::uint64_t>(row[c] != 0) << (c % 64);
      }
      bits[r * words + w] = word;
    }
  }
  return bits;
}

namespace {

BoolMatrix join_matrix_over(const std::vector<SetPartition>& parts) {
  BoolMatrix m;
  m.rows = m.cols = parts.size();
  m.data.assign(m.rows * m.cols, 0);
  // The join is symmetric; each row i computes its upper triangle and fills
  // both cells. Every cell is written exactly once and its value depends
  // only on (i, j), so rows shard across threads with identical results
  // (B_8 = 4140 makes this ~8.6M joins for the M_8 rank row).
  parallel_for_blocks(parts.size(), 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = i; j < parts.size(); ++j) {
        const std::uint8_t bit = parts[i].join(parts[j]).is_coarsest() ? 1 : 0;
        m.at(i, j) = bit;
        m.at(j, i) = bit;
      }
    }
  });
  return m;
}

}  // namespace

BoolMatrix partition_join_matrix(std::size_t n) {
  // One byte per entry: dense M_9 is already B_9^2 = 447 MB and M_10 is
  // 13.4 GB — a silent multi-GB allocation, so the guard is typed and names
  // the footprint. Larger n goes through the out-of-core tiled pipeline
  // (linalg/tiled_rank.h), which never materializes the dense matrix.
  constexpr std::size_t kMaxDenseJoinN = 8;
  BCCLB_REQUIRE(n >= 1, "ground set must be nonempty");
  if (n > kMaxDenseJoinN) {
    const double bell = n <= 25 ? static_cast<double>(bell_number_u64(n)) : 1e30;
    char footprint[64];
    std::snprintf(footprint, sizeof(footprint), "~%.2f GiB", bell * bell / (1024.0 * 1024.0 * 1024.0));
    throw RangeViolationError(
        "partition_join_matrix(" + std::to_string(n) + "): dense M_" + std::to_string(n) +
        " is B_n x B_n bytes (" + footprint + "), past the dense ceiling n <= " +
        std::to_string(kMaxDenseJoinN) +
        " (B_8 = 4140); use tiled_partition_rank (linalg/tiled_rank.h) instead");
  }
  return join_matrix_over(all_partitions(n));
}

BoolMatrix two_partition_join_matrix(std::size_t n) {
  BCCLB_REQUIRE(n >= 2 && n % 2 == 0 && n <= 12,
                "E_n supported for even n <= 12 ((11)!! = 10395)");
  return join_matrix_over(all_perfect_matchings(n));
}

}  // namespace bcclb
