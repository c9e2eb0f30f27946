#include "partition/sampling.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/mathutil.h"
#include "partition/bell.h"

namespace bcclb {

namespace {

// log2 C(n, k).
double log2_choose(std::size_t n, std::size_t k) {
  return log2_factorial(n) - log2_factorial(k) - log2_factorial(n - k);
}

// Samples an index from weights given in log2 domain (exact up to double
// rounding; the weights here are ratios of Bell/Stirling numbers whose
// relative error is ~1e-15, far below any experiment's resolution).
std::size_t sample_log_weights(const std::vector<double>& log_w, Rng& rng) {
  BCCLB_CHECK(!log_w.empty(), "no weights");
  double max_lw = log_w[0];
  for (double lw : log_w) max_lw = std::max(max_lw, lw);
  std::vector<double> w(log_w.size());
  double total = 0.0;
  for (std::size_t i = 0; i < log_w.size(); ++i) {
    w[i] = std::exp2(log_w[i] - max_lw);
    total += w[i];
  }
  double x = rng.next_double() * total;
  for (std::size_t i = 0; i < w.size(); ++i) {
    x -= w[i];
    if (x <= 0) return i;
  }
  return w.size() - 1;
}

// Chooses `k` elements uniformly from `pool` (without replacement), removing
// them from the pool. The first pool element is always taken (it anchors the
// block), so k-1 others are drawn from the remainder.
std::vector<std::uint32_t> draw_block(std::vector<std::uint32_t>& pool, std::size_t k,
                                      Rng& rng) {
  BCCLB_CHECK(k >= 1 && k <= pool.size(), "bad block size");
  std::vector<std::uint32_t> block{pool.front()};
  pool.erase(pool.begin());
  for (std::size_t j = 1; j < k; ++j) {
    const std::size_t pick = rng.next_below(pool.size());
    block.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return block;
}

}  // namespace

SetPartition uniform_partition(std::size_t n, Rng& rng) {
  BCCLB_REQUIRE(n >= 1, "ground set must be nonempty");
  std::vector<std::uint32_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = static_cast<std::uint32_t>(i);
  std::vector<std::vector<std::uint32_t>> blocks;
  while (!pool.empty()) {
    const std::size_t m = pool.size();
    // P(block of pool[0] has size k) = C(m-1, k-1) B(m-k) / B(m).
    std::vector<double> log_w(m);
    for (std::size_t k = 1; k <= m; ++k) {
      log_w[k - 1] = log2_choose(m - 1, k - 1) + log2_bell(m - k);
    }
    const std::size_t k = sample_log_weights(log_w, rng) + 1;
    blocks.push_back(draw_block(pool, k, rng));
  }
  return SetPartition::from_blocks(n, blocks);
}

}  // namespace bcclb
