// Deterministic, reproducible randomness for experiments.
//
// The BCC(1) lower-bound model assumes public coins: every vertex sees the
// same random string. Rng is a xoshiro256** generator with SplitMix64
// seeding; PublicCoins wraps one Rng and hands out a shared bit stream so a
// simulated randomized algorithm consumes exactly the coins the model grants.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace bcclb {

// The two stateless 64-bit mixers the library hashes with. Both are
// full-avalanche bijections on 64 bits; callers depend on their exact
// outputs (digests, shard scores, chaos byte picks), so they are pinned in
// common_test.
//
// SplitMix64's finalizer applied to x + γ: SplitMix64's output for state x.
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// MurmurHash3's 64-bit finalizer (fmix64). Maps 0 to 0.
constexpr std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64. Chosen over
// std::mt19937_64 for speed and because its state is trivially copyable,
// which makes replaying a public-coin experiment exact.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next_u64();

  // Uniform in [0, bound). bound must be positive. Uses rejection sampling,
  // so the result is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [0, 1).
  double next_double();

  bool next_bool() { return (next_u64() >> 63) != 0; }

  // Bernoulli(p).
  bool next_bernoulli(double p) { return next_double() < p; }

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

// A pre-drawn shared random bit string, as in the public-coin BCC model where
// every vertex receives the identical string r_v. Vertices read bits by index
// so that two vertices reading the same positions see the same coins.
class PublicCoins {
 public:
  PublicCoins(std::uint64_t seed, std::size_t num_bits);

  bool bit(std::size_t i) const;

  // Reads `width` bits starting at `start` as a big-endian integer.
  // width must be at most 64.
  std::uint64_t word(std::size_t start, unsigned width) const;

  std::size_t size_bits() const { return num_bits_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t num_bits_;
};

}  // namespace bcclb
