#include "partition/pair_partition.h"

#include <algorithm>

#include "common/check.h"
#include "common/mathutil.h"

namespace bcclb {

std::uint64_t num_perfect_matchings(std::size_t n) { return perfect_matching_count(n); }

namespace {

void enumerate_matchings(std::vector<std::uint32_t>& unmatched,
                         std::vector<std::vector<std::uint32_t>>& pairs, std::size_t n,
                         std::vector<SetPartition>& out) {
  if (unmatched.empty()) {
    out.push_back(SetPartition::from_blocks(n, pairs));
    return;
  }
  const std::uint32_t a = unmatched.front();
  for (std::size_t j = 1; j < unmatched.size(); ++j) {
    const std::uint32_t b = unmatched[j];
    std::vector<std::uint32_t> rest;
    rest.reserve(unmatched.size() - 2);
    for (std::size_t k = 1; k < unmatched.size(); ++k) {
      if (k != j) rest.push_back(unmatched[k]);
    }
    pairs.push_back({a, b});
    enumerate_matchings(rest, pairs, n, out);
    pairs.pop_back();
  }
}

}  // namespace

std::vector<SetPartition> all_perfect_matchings(std::size_t n) {
  BCCLB_REQUIRE(n >= 2 && n % 2 == 0, "n must be even and >= 2");
  std::vector<std::uint32_t> unmatched(n);
  for (std::size_t i = 0; i < n; ++i) unmatched[i] = static_cast<std::uint32_t>(i);
  std::vector<std::vector<std::uint32_t>> pairs;
  std::vector<SetPartition> out;
  enumerate_matchings(unmatched, pairs, n, out);
  return out;
}

std::uint64_t perfect_matching_index(const SetPartition& p) {
  BCCLB_REQUIRE(p.is_perfect_matching(), "not a perfect-matching partition");
  const std::size_t n = p.ground_size();
  // Mixed-radix: at each step the smallest unmatched element chooses its
  // partner among the remaining (m-1) in increasing order; the suffix count
  // is (m-3)!! per choice.
  std::vector<bool> used(n, false);
  std::uint64_t index = 0;
  std::size_t remaining = n;
  for (std::size_t a = 0; a < n; ++a) {
    if (used[a]) continue;
    used[a] = true;
    // a's partner.
    std::uint32_t partner = 0;
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!used[b] && p.same_block(a, b)) {
        partner = static_cast<std::uint32_t>(b);
        break;
      }
    }
    // Rank of partner among unmatched elements > a.
    std::uint64_t rank = 0;
    for (std::size_t b = a + 1; b < partner; ++b) {
      if (!used[b]) ++rank;
    }
    used[partner] = true;
    const std::uint64_t suffix =
        remaining >= 4 ? num_perfect_matchings(remaining - 2) : 1;
    index += rank * suffix;
    remaining -= 2;
  }
  return index;
}

SetPartition perfect_matching_from_index(std::size_t n, std::uint64_t index) {
  BCCLB_REQUIRE(n >= 2 && n % 2 == 0, "n must be even and >= 2");
  BCCLB_REQUIRE(index < num_perfect_matchings(n), "index out of range");
  std::vector<bool> used(n, false);
  std::vector<std::vector<std::uint32_t>> pairs;
  std::size_t remaining = n;
  for (std::size_t a = 0; a < n; ++a) {
    if (used[a]) continue;
    used[a] = true;
    const std::uint64_t suffix =
        remaining >= 4 ? num_perfect_matchings(remaining - 2) : 1;
    const std::uint64_t rank = index / suffix;
    index %= suffix;
    // Find the rank-th unmatched element after a.
    std::uint64_t seen = 0;
    std::uint32_t partner = 0;
    for (std::size_t b = a + 1; b < n; ++b) {
      if (used[b]) continue;
      if (seen == rank) {
        partner = static_cast<std::uint32_t>(b);
        break;
      }
      ++seen;
    }
    used[partner] = true;
    pairs.push_back({static_cast<std::uint32_t>(a), partner});
    remaining -= 2;
  }
  return SetPartition::from_blocks(n, pairs);
}

SetPartition random_perfect_matching(std::size_t n, Rng& rng) {
  return perfect_matching_from_index(n, rng.next_below(num_perfect_matchings(n)));
}

}  // namespace bcclb
