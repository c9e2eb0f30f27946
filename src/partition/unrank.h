// Random access into RGS-lexicographic partition order: unranking.
//
// `partition_index` (enumeration.h) maps a partition to its position among
// the B_n partitions of [n]; this header provides the exact inverse. The
// primitive is the extension-count table D(m, a) — the number of ways to
// complete a restricted growth string when m positions remain and the prefix
// written so far has maximum block index a:
//
//   D(0, a) = 1,   D(m, a) = (a + 1) D(m-1, a) + D(m-1, a+1)
//
// (either the next position reuses one of the a+1 open blocks, or it opens
// block a+1). D(n-1, 0) = B_n. Unranking walks the string left to right,
// at each position subtracting whole D-counts until the remaining index
// pins the digit — O(n) table lookups per partition, no enumeration of
// predecessors. This is the lego `setpart.h` idea (memoized Stirling-style
// counts + SetPart_getPartition) transplanted onto RGS-lex order so it
// composes with partition_index, all_partitions, and next_rgs.
//
// Everything here is u64-exact: D(m, a) is only ever read at m + a <= n - 1,
// and for n <= kMaxUnrankN = 25 those entries are bounded by B_25 (the last
// Bell number below 2^64). Past the ceiling a typed RangeViolationError
// names the limit instead of silently wrapping.
//
// PartitionSlice streams an arbitrary half-open index range [lo, hi):
// unrank once for `lo`, then advance with next_rgs. That is what lets an
// out-of-core worker (linalg/tiled_rank.h) materialize tile t of the join
// matrix — rows [t*K, t*K + K) — without touching the other B_n - K rows.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/set_partition.h"

namespace bcclb {

// Largest n for which unranking (and partition_index, and bell_number_u64)
// is exact in 64 bits: B_25 = 4638590332229999353 < 2^64 <= B_26.
inline constexpr std::size_t kMaxUnrankN = 25;

// B_n as u64 with a typed guard: throws RangeViolationError (naming n and
// the ceiling) when n is 0 or exceeds kMaxUnrankN, instead of tripping the
// generic BCCLB_REQUIRE inside bell_number_u64.
std::uint64_t checked_bell_u64(std::size_t n);

// The D(m, a) extension count (see file comment). Requires m + a + 1 <=
// kMaxUnrankN; throws RangeViolationError otherwise. Exposed for tests and
// for sizing slices without unranking.
std::uint64_t rgs_extension_count(std::size_t m, std::size_t a);

// Writes the index-th RGS (RGS-lex order) for ground set size n into `rgs`
// (resized to n) — the exact inverse of partition_index. Requires
// 1 <= n <= kMaxUnrankN and index < B_n; throws RangeViolationError
// otherwise. O(n^2) worst case, O(n) table probes.
void unrank_rgs(std::size_t n, std::uint64_t index, std::vector<std::uint32_t>& rgs);

// Streams the partitions with indices in [lo, hi) in order, without
// enumerating the lo predecessors: one unrank for lo, then next_rgs per
// step. Construction validates 1 <= n <= kMaxUnrankN and lo <= hi <= B_n
// (RangeViolationError otherwise).
class PartitionSlice {
 public:
  PartitionSlice(std::size_t n, std::uint64_t lo, std::uint64_t hi);

  // Advances to the next partition and exposes its RGS via rgs(); returns
  // false once the slice is exhausted (rgs() is then unspecified).
  bool next();

  const std::vector<std::uint32_t>& rgs() const { return rgs_; }

  // Index (in the global RGS-lex order) of the partition rgs() currently
  // holds; valid only after a successful next().
  std::uint64_t index() const { return next_index_ - 1; }

  std::uint64_t remaining() const { return hi_ - next_index_; }

 private:
  std::uint64_t next_index_;  // index the next next() call will surface
  std::uint64_t hi_;
  std::vector<std::uint32_t> rgs_;
  bool primed_ = false;  // rgs_ holds next_index_'s RGS already (the unranked lo)
};

}  // namespace bcclb
