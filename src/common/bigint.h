// Arbitrary-precision unsigned integers.
//
// Bell numbers B_n — the sizes of the partition input spaces whose logarithm
// drives every Ω(n log n) bound in the paper — overflow 64 bits at n = 26 and
// 128 bits around n = 42. BigUint is a small schoolbook implementation (base
// 2^32 limbs) sufficient for the Bell triangle up to a few hundred and exact
// log2 computation; it is not a general-purpose bignum.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bcclb {

class BigUint {
 public:
  BigUint() = default;
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor) — numeric literal convenience

  bool is_zero() const { return limbs_.empty(); }

  BigUint& operator+=(const BigUint& rhs);
  BigUint& operator*=(std::uint32_t m);
  BigUint operator*(const BigUint& rhs) const;

  // Exact division by a small constant; requires the remainder to be zero.
  BigUint divided_by_small(std::uint32_t d) const;

  friend BigUint operator+(BigUint a, const BigUint& b) { return a += b; }
  friend BigUint operator*(BigUint a, std::uint32_t m) { return a *= m; }

  // Three-way compare: negative / zero / positive as *this <=> rhs.
  int compare(const BigUint& rhs) const;
  friend bool operator==(const BigUint& a, const BigUint& b) { return a.compare(b) == 0; }
  friend bool operator!=(const BigUint& a, const BigUint& b) { return a.compare(b) != 0; }
  friend bool operator<(const BigUint& a, const BigUint& b) { return a.compare(b) < 0; }
  friend bool operator<=(const BigUint& a, const BigUint& b) { return a.compare(b) <= 0; }
  friend bool operator>(const BigUint& a, const BigUint& b) { return a.compare(b) > 0; }
  friend bool operator>=(const BigUint& a, const BigUint& b) { return a.compare(b) >= 0; }

  // Number of bits in the binary representation (0 for zero).
  std::size_t bit_length() const;

  // log2 of the value as a double (requires nonzero). Exact to double
  // precision: uses the top 64 bits of the mantissa.
  double log2() const;

  // Value as u64; requires it fits.
  std::uint64_t to_u64() const;
  bool fits_u64() const;

  std::string to_decimal() const;

 private:
  void trim();
  // Little-endian base-2^32 limbs; empty means zero.
  std::vector<std::uint32_t> limbs_;
};

}  // namespace bcclb
