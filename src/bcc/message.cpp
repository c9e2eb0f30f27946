#include "bcc/message.h"

namespace bcclb {

Message Message::bits(std::uint64_t value, unsigned len) {
  BCCLB_REQUIRE(len >= 1 && len <= 64, "message length must be in [1, 64]");
  BCCLB_REQUIRE(len == 64 || value < (1ULL << len), "value does not fit in len bits");
  Message m;
  m.silent_ = false;
  m.value_ = value;
  m.len_ = len;
  return m;
}

bool Message::bit(unsigned i) const {
  BCCLB_REQUIRE(!silent_, "silent message has no bits");
  BCCLB_REQUIRE(i < len_, "bit index out of range");
  return (value_ >> i) & 1;
}

std::uint64_t Message::value() const {
  BCCLB_REQUIRE(!silent_, "silent message has no value");
  return value_;
}

std::string Message::to_string() const {
  if (silent_) return "_";
  std::string s;
  for (unsigned i = 0; i < len_; ++i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

}  // namespace bcclb
