// Perfect-matching partitions — the TwoPartition input space (Section 4.1).
//
// A TwoPartition input is a partition of [n] (n even) where every part has
// exactly two elements; there are r = n!/(2^{n/2} (n/2)!) = (n-1)!! of them.
// This module enumerates, indexes and samples them, and converts a matching
// to the cycle-forming edges of the Figure 2 (right) reduction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "partition/set_partition.h"

namespace bcclb {

// All perfect-matching partitions of [n] (n even), in a stable order: the
// smallest unmatched element is repeatedly paired with each larger unmatched
// element in increasing order. (n-1)!! of them — keep n <= 12 or so.
std::vector<SetPartition> all_perfect_matchings(std::size_t n);

// Number of perfect matchings of [n]: (n-1)!!.
std::uint64_t num_perfect_matchings(std::size_t n);

// Index of a perfect-matching partition within all_perfect_matchings order.
std::uint64_t perfect_matching_index(const SetPartition& p);

// Inverse of perfect_matching_index.
SetPartition perfect_matching_from_index(std::size_t n, std::uint64_t index);

// Uniformly random perfect matching of [n].
SetPartition random_perfect_matching(std::size_t n, Rng& rng);

}  // namespace bcclb
