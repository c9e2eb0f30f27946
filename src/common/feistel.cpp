#include "common/feistel.h"

#include "common/check.h"
#include "common/mathutil.h"
#include "common/random.h"

namespace bcclb {

FeistelPermutation::FeistelPermutation(std::uint64_t seed, std::uint64_t size) : size_(size) {
  // Domain 2^{2k} >= size with the smallest k >= 1; 2^{2k} < 4 * size keeps
  // the cycle-walk short. size <= 2^62 so 2k <= 64 always holds.
  BCCLB_REQUIRE(size <= (1ULL << 62), "permutation domain too large");
  unsigned bits = size < 2 ? 2 : ceil_log2(size);
  if (bits % 2 != 0) ++bits;
  half_bits_ = bits / 2;
  half_mask_ = (half_bits_ >= 64) ? ~0ULL : ((1ULL << half_bits_) - 1);
  // Round keys from a SplitMix64 stream over (seed, size): two permutations
  // agree iff seed and size agree.
  std::uint64_t s = splitmix64_mix(seed ^ splitmix64_mix(size));
  for (unsigned i = 0; i < kRounds; ++i) {
    s = splitmix64_mix(s);
    keys_[i] = s;
  }
}

std::uint64_t FeistelPermutation::step(std::uint64_t x) const {
  std::uint64_t left = x >> half_bits_;
  std::uint64_t right = x & half_mask_;
  for (unsigned i = 0; i < kRounds; ++i) {
    const std::uint64_t f = splitmix64_mix(keys_[i] ^ right) & half_mask_;
    const std::uint64_t new_right = left ^ f;
    left = right;
    right = new_right;
  }
  return (left << half_bits_) | right;
}

std::uint64_t FeistelPermutation::unstep(std::uint64_t y) const {
  std::uint64_t left = y >> half_bits_;
  std::uint64_t right = y & half_mask_;
  for (unsigned i = kRounds; i-- > 0;) {
    const std::uint64_t f = splitmix64_mix(keys_[i] ^ left) & half_mask_;
    const std::uint64_t old_left = right ^ f;
    right = left;
    left = old_left;
  }
  return (left << half_bits_) | right;
}

std::uint64_t FeistelPermutation::forward(std::uint64_t x) const {
  BCCLB_REQUIRE(x < size_, "permutation input out of range");
  std::uint64_t y = step(x);
  while (y >= size_) y = step(y);
  return y;
}

std::uint64_t FeistelPermutation::inverse(std::uint64_t y) const {
  BCCLB_REQUIRE(y < size_, "permutation input out of range");
  std::uint64_t x = unstep(y);
  while (x >= size_) x = unstep(x);
  return x;
}

}  // namespace bcclb
