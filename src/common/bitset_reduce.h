// Cache-blocked reduction over a flat std::uint64_t buffer.
//
// The SoA min-ID flood (bcc/algorithms/min_id_flood.cpp) checks whether all
// labels agree by taking the min and max of its value column. Min and max are
// associative and commutative, so any partition of the index range combines
// to the same answer: serial and parallel calls are bit-identical for every
// thread count, the same contract parallel_for_blocks documents. Work is
// sharded in cache-sized blocks (32 KiB of words) with per-block partials
// combined in block order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace bcclb {

// Words per reduction block: 4096 * 8 B = 32 KiB, comfortably L1/L2-resident.
inline constexpr std::size_t kReduceBlockWords = 4096;

struct MinMaxU64 {
  std::uint64_t min = ~0ULL;
  std::uint64_t max = 0;
};

// One-pass min and max of a value array; the identity element on empty input.
// threads == 0 means default_parallel_threads().
MinMaxU64 min_max_values(std::span<const std::uint64_t> values, unsigned threads = 1);

}  // namespace bcclb
