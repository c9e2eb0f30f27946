// Exhaustive enumeration of set partitions via restricted growth strings.
//
// The join matrices M_n (Theorem 2.3) and the exhaustive protocol-correctness
// sweeps need all B_n partitions in a stable order; RGS lexicographic order
// is the canonical indexing we use everywhere (partition_index inverts it).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "partition/set_partition.h"

namespace bcclb {

// All partitions of [n], in RGS-lexicographic order: PartitionSlice(n, 0,
// B_n) collected. B_n of them — keep n small (B_12 ≈ 4.2M); n > 12 throws a
// typed RangeViolationError.
std::vector<SetPartition> all_partitions(std::size_t n);

// Visits partitions in RGS-lexicographic order without materializing them,
// streaming PartitionSlice(n, 0, B_n). Stops early if the visitor returns
// false.
void for_each_partition(std::size_t n, const std::function<bool(const SetPartition&)>& visit);

// Index of p within RGS-lexicographic order (inverse of all_partitions[i]);
// O(n^2) probes of the memoized D(m, a) table behind partition/unrank.h.
std::uint64_t partition_index(const SetPartition& p);

// In-place successor in RGS-lexicographic order; returns false (and resets to
// the first RGS) after the last one.
bool next_rgs(std::vector<std::uint32_t>& rgs);

}  // namespace bcclb
