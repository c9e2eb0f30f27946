#include "common/bigint.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace bcclb {

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(v));
    if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
  }
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint& BigUint::operator+=(const BigUint& rhs) {
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  limbs_.resize(n, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry + limbs_[i] + (i < rhs.limbs_.size() ? rhs.limbs_[i] : 0);
    limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) limbs_.push_back(static_cast<std::uint32_t>(carry));
  return *this;
}

BigUint& BigUint::operator*=(std::uint32_t m) {
  if (m == 0 || is_zero()) {
    limbs_.clear();
    return *this;
  }
  std::uint64_t carry = 0;
  for (auto& limb : limbs_) {
    std::uint64_t prod = static_cast<std::uint64_t>(limb) * m + carry;
    limb = static_cast<std::uint32_t>(prod);
    carry = prod >> 32;
  }
  if (carry) limbs_.push_back(static_cast<std::uint32_t>(carry));
  return *this;
}

BigUint BigUint::operator*(const BigUint& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigUint();
  BigUint out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] +
                          static_cast<std::uint64_t>(limbs_[i]) * rhs.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::divided_by_small(std::uint32_t d) const {
  BCCLB_REQUIRE(d != 0, "division by zero");
  BigUint q;
  q.limbs_.assign(limbs_.size(), 0);
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const std::uint64_t cur = (rem << 32) | limbs_[i];
    q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
    rem = cur % d;
  }
  BCCLB_REQUIRE(rem == 0, "divided_by_small requires exact division");
  q.trim();
  return q;
}

int BigUint::compare(const BigUint& rhs) const {
  if (limbs_.size() != rhs.limbs_.size()) {
    return limbs_.size() < rhs.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] < rhs.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

double BigUint::log2() const {
  BCCLB_REQUIRE(!is_zero(), "log2 of zero");
  // Top three limbs give 96 mantissa bits — more than double can hold, so
  // the result is exact to double precision.
  const std::size_t take = std::min<std::size_t>(limbs_.size(), 3);
  double mant = 0.0;
  for (std::size_t i = 0; i < take; ++i) {
    mant = mant * 4294967296.0 + static_cast<double>(limbs_[limbs_.size() - 1 - i]);
  }
  return std::log2(mant) + 32.0 * static_cast<double>(limbs_.size() - take);
}

bool BigUint::fits_u64() const { return bit_length() <= 64; }

std::uint64_t BigUint::to_u64() const {
  BCCLB_REQUIRE(fits_u64(), "BigUint does not fit in u64");
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::string BigUint::to_decimal() const {
  if (is_zero()) return "0";
  std::vector<std::uint32_t> work(limbs_);
  std::string digits;
  while (!work.empty()) {
    // Divide work by 10^9, collecting the remainder.
    std::uint64_t rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | work[i];
      work[i] = static_cast<std::uint32_t>(cur / 1000000000ULL);
      rem = cur % 1000000000ULL;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  std::reverse(digits.begin(), digits.end());
  return digits;
}

}  // namespace bcclb
