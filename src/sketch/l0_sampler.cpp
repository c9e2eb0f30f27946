#include "sketch/l0_sampler.h"

#include <bit>

#include "common/check.h"
#include "common/mathutil.h"
#include "common/random.h"

namespace bcclb {

namespace {

constexpr std::uint64_t kMersenne61 = (1ULL << 61) - 1;

std::uint64_t hash3(std::uint64_t seed, std::uint64_t copy, std::uint64_t x) {
  return fmix64(fmix64(seed ^ (copy * 0x9e3779b97f4a7c15ULL)) ^ x);
}

std::uint64_t mod_mersenne61(unsigned __int128 x) {
  std::uint64_t lo = static_cast<std::uint64_t>(x & kMersenne61);
  std::uint64_t hi = static_cast<std::uint64_t>(x >> 61);
  std::uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

std::uint64_t mulmod61(std::uint64_t a, std::uint64_t b) {
  return mod_mersenne61(static_cast<unsigned __int128>(a) * b);
}

std::uint64_t powmod61(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t r = 1;
  base %= kMersenne61;
  while (exp) {
    if (exp & 1) r = mulmod61(r, base);
    base = mulmod61(base, base);
    exp >>= 1;
  }
  return r;
}

}  // namespace

L0Sampler::L0Sampler(const L0Params& params) : params_(params) {
  BCCLB_REQUIRE(params.universe >= 1, "universe must be nonempty");
  const unsigned levels = ceil_log2(params.universe) + 2;
  levels_.resize(levels);
  z_ = 2 + hash3(params.seed, params.copy, 0x5eedf00dULL) % (kMersenne61 - 3);
}

unsigned L0Sampler::level_of(std::uint64_t index) const {
  const std::uint64_t h = hash3(params_.seed, params_.copy, index);
  const unsigned lz = static_cast<unsigned>(std::countl_zero(h | 1));
  return lz < levels_.size() - 1 ? lz : static_cast<unsigned>(levels_.size() - 1);
}

void L0Sampler::update(std::uint64_t index, std::int64_t delta) {
  BCCLB_REQUIRE(index < params_.universe, "index out of range");
  const unsigned top = level_of(index);
  // The item participates in all levels 0..top (geometric subsampling).
  const std::uint64_t zi = powmod61(z_, index);
  for (unsigned lvl = 0; lvl <= top; ++lvl) {
    Level& l = levels_[lvl];
    l.count += delta;
    l.index_sum += static_cast<__int128>(delta) * static_cast<__int128>(index);
    const std::uint64_t term = mulmod61(
        static_cast<std::uint64_t>((delta % static_cast<std::int64_t>(kMersenne61) +
                                    static_cast<std::int64_t>(kMersenne61)) %
                                   static_cast<std::int64_t>(kMersenne61)),
        zi);
    l.fingerprint = (l.fingerprint + term) % kMersenne61;
  }
}

void L0Sampler::merge(const L0Sampler& other) {
  BCCLB_REQUIRE(params_.universe == other.params_.universe &&
                    params_.seed == other.params_.seed && params_.copy == other.params_.copy,
                "cannot merge sketches with different parameters");
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    levels_[i].count += other.levels_[i].count;
    levels_[i].index_sum += other.levels_[i].index_sum;
    levels_[i].fingerprint = (levels_[i].fingerprint + other.levels_[i].fingerprint) % kMersenne61;
  }
}

std::optional<std::uint64_t> L0Sampler::sample() const {
  // Prefer deeper (sparser) levels: they are one-sparse with good
  // probability when the support is large.
  for (std::size_t i = levels_.size(); i-- > 0;) {
    const Level& l = levels_[i];
    if (l.count == 0) continue;
    if (l.index_sum % l.count != 0) continue;
    const __int128 idx128 = l.index_sum / l.count;
    if (idx128 < 0 || idx128 >= static_cast<__int128>(params_.universe)) continue;
    const std::uint64_t idx = static_cast<std::uint64_t>(idx128);
    // Fingerprint confirmation: a truly one-sparse level with multiplicity c
    // at idx has fingerprint c * z^idx.
    const std::uint64_t c_mod = static_cast<std::uint64_t>(
        (l.count % static_cast<std::int64_t>(kMersenne61) +
         static_cast<std::int64_t>(kMersenne61)) %
        static_cast<std::int64_t>(kMersenne61));
    if (l.fingerprint == mulmod61(c_mod, powmod61(z_, idx))) return idx;
  }
  return std::nullopt;
}

bool L0Sampler::appears_zero() const {
  for (const Level& l : levels_) {
    if (l.count != 0 || l.fingerprint != 0) return false;
  }
  return true;
}

std::vector<std::uint64_t> L0Sampler::serialize() const {
  // Per level: count (64), index_sum low/high (128), fingerprint (64).
  std::vector<std::uint64_t> words;
  words.reserve(levels_.size() * 4);
  for (const Level& l : levels_) {
    words.push_back(static_cast<std::uint64_t>(l.count));
    words.push_back(static_cast<std::uint64_t>(static_cast<unsigned __int128>(l.index_sum)));
    words.push_back(
        static_cast<std::uint64_t>(static_cast<unsigned __int128>(l.index_sum) >> 64));
    words.push_back(l.fingerprint);
  }
  return words;
}

L0Sampler L0Sampler::deserialize(const L0Params& params, const std::vector<std::uint64_t>& words,
                                 std::size_t& at) {
  L0Sampler s(params);
  for (Level& l : s.levels_) {
    BCCLB_REQUIRE(at + 4 <= words.size(), "truncated sketch serialization");
    l.count = static_cast<std::int64_t>(words[at++]);
    unsigned __int128 sum = words[at++];
    sum |= static_cast<unsigned __int128>(words[at++]) << 64;
    l.index_sum = static_cast<__int128>(sum);
    l.fingerprint = words[at++];
  }
  return s;
}

std::size_t L0Sampler::size_bits() const {
  // A tight implementation ships, per level, count (O(log n) bits, we charge
  // 32), index_sum (2 log U <= 64) and a 61-bit fingerprint.
  return levels_.size() * (32 + 64 + 61);
}

}  // namespace bcclb
