// Broadcast messages in the BCC(b) model.
//
// In each round a vertex broadcasts at most b bits or stays silent; the
// paper models silence as the extra character ⊥, so a round's broadcast is a
// character from {0, 1, ⊥} when b = 1 and, in general, a bit string of
// length <= b or ⊥. Messages carry up to 64 bits (b = 64 covers every
// bandwidth regime the experiments sweep, including b = Θ(log n)).
#pragma once

#include <cstdint>
#include <string>

#include "common/check.h"

namespace bcclb {

class Message {
 public:
  // The silent broadcast ⊥.
  Message() = default;

  static Message silent() { return Message(); }

  // A `len`-bit message; bit i (0 = first sent) is (value >> i) & 1.
  static Message bits(std::uint64_t value, unsigned len);

  // Convenience for b = 1.
  static Message one_bit(bool b) { return bits(b ? 1 : 0, 1); }

  bool is_silent() const { return silent_; }
  unsigned num_bits() const { return silent_ ? 0 : len_; }

  bool bit(unsigned i) const;
  std::uint64_t value() const;

  // "_" for ⊥, else the bit string, e.g. "010".
  std::string to_string() const;

  friend bool operator==(const Message&, const Message&) = default;

 private:
  bool silent_ = true;
  std::uint64_t value_ = 0;
  unsigned len_ = 0;
};

}  // namespace bcclb
