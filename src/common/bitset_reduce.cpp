#include "common/bitset_reduce.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"

namespace bcclb {

MinMaxU64 min_max_values(std::span<const std::uint64_t> values, unsigned threads) {
  const auto block_min_max = [&](std::size_t begin, std::size_t end) {
    MinMaxU64 mm;
    for (std::size_t i = begin; i < end; ++i) {
      mm.min = std::min(mm.min, values[i]);
      mm.max = std::max(mm.max, values[i]);
    }
    return mm;
  };
  const std::size_t blocks = (values.size() + kReduceBlockWords - 1) / kReduceBlockWords;
  if (blocks <= 1) return block_min_max(0, values.size());
  std::vector<MinMaxU64> partials(blocks);
  parallel_for_blocks(blocks, threads, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t begin = b * kReduceBlockWords;
      partials[b] = block_min_max(begin, std::min(values.size(), begin + kReduceBlockWords));
    }
  });
  MinMaxU64 acc;
  for (const MinMaxU64& p : partials) {
    acc.min = std::min(acc.min, p.min);
    acc.max = std::max(acc.max, p.max);
  }
  return acc;
}

}  // namespace bcclb
