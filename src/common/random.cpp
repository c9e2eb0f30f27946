#include "common/random.h"

namespace bcclb {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  BCCLB_REQUIRE(bound > 0, "next_below bound must be positive");
  // Rejection sampling over the largest multiple of bound below 2^64.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  // 53 high bits → uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

PublicCoins::PublicCoins(std::uint64_t seed, std::size_t num_bits) : num_bits_(num_bits) {
  Rng rng(seed);
  words_.resize((num_bits + 63) / 64);
  for (auto& w : words_) w = rng.next_u64();
}

bool PublicCoins::bit(std::size_t i) const {
  BCCLB_REQUIRE(i < num_bits_, "coin index out of range");
  return (words_[i / 64] >> (i % 64)) & 1;
}

std::uint64_t PublicCoins::word(std::size_t start, unsigned width) const {
  BCCLB_REQUIRE(width <= 64, "word width must be at most 64");
  std::uint64_t out = 0;
  for (unsigned k = 0; k < width; ++k) {
    out = (out << 1) | static_cast<std::uint64_t>(bit(start + k));
  }
  return out;
}

}  // namespace bcclb
