// Random set partitions.
//
// The Theorem 4.5 hard distribution draws Alice's partition PA uniformly
// from all B_n partitions of [n]. uniform_partition implements exact uniform
// sampling by the block-of-first-element recursion: the block containing
// element 0 has size k with probability C(n-1, k-1) * B(n-k) / B(n), then the
// rest is a uniform partition of the remaining elements.
#pragma once

#include <cstddef>

#include "common/random.h"
#include "partition/set_partition.h"

namespace bcclb {

// Exactly uniform over all B_n set partitions of [n].
SetPartition uniform_partition(std::size_t n, Rng& rng);

}  // namespace bcclb
