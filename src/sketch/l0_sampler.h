// ℓ0-samplers over a signed-multiplicity vector (Ahn–Guha–McGregor style).
//
// The paper's tightness discussion (Section 1.1) cites sketch-based O(log n)
// BCC(1) connectivity upper bounds; we realize the randomized variant: each
// vertex sketches its incidence vector, sketches add linearly, and a merged
// component sketch returns a uniformly-ish random outgoing edge. The sampler
// subsamples the universe at geometric rates and keeps a one-sparse recovery
// triple (count, index-sum, fingerprint) per level.
//
// All hash material derives from a seed, so vertices sharing public coins
// build identical samplers — exactly the public-coin BCC model.
#pragma once

#include <cstdint>
#include <optional>

#include <vector>

namespace bcclb {

struct L0Params {
  std::uint64_t universe = 0;  // indices are in [0, universe)
  std::uint64_t seed = 0;      // shared hash seed (public coins)
  std::uint32_t copy = 0;      // which independent copy; distinct copies use
                               // independent hash material
};

class L0Sampler {
 public:
  explicit L0Sampler(const L0Params& params);

  // Adds delta (typically ±1) to coordinate `index`.
  void update(std::uint64_t index, std::int64_t delta);

  // Linear merge; parameters must match.
  void merge(const L0Sampler& other);

  // Recovers some nonzero coordinate if any level is exactly one-sparse.
  // nullopt means the sketch failed (or the vector is zero).
  std::optional<std::uint64_t> sample() const;

  const L0Params& params() const { return params_; }
  std::size_t num_levels() const { return levels_.size(); }

  // Serialization to 64-bit words (for broadcasting through the BCC
  // simulator) and the exact bit size a real implementation would ship.
  std::vector<std::uint64_t> serialize() const;
  static L0Sampler deserialize(const L0Params& params,
                               const std::vector<std::uint64_t>& words, std::size_t& at);
  std::size_t size_bits() const;

 private:
  struct Level {
    std::int64_t count = 0;
    __int128 index_sum = 0;
    std::uint64_t fingerprint = 0;  // mod 2^61 - 1

    friend bool operator==(const Level&, const Level&) = default;
  };

  // Highest level this index belongs to (it belongs to all levels <= this).
  unsigned level_of(std::uint64_t index) const;

  L0Params params_;
  std::vector<Level> levels_;
  std::uint64_t z_ = 0;  // fingerprint base, derived from seed/copy
};

}  // namespace bcclb
