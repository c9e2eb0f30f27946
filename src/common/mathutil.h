// Small numeric helpers shared across the laboratory: harmonic numbers
// (Lemma 3.8/3.9 compare |V2|/|V1| against H_{n/2}), log-factorials (Stirling
// estimates of r = n!/(2^{n/2}(n/2)!)), and integer log/power utilities.
#pragma once

#include <cstdint>

namespace bcclb {

// H_n = 1 + 1/2 + ... + 1/n (H_0 = 0).
double harmonic(std::uint64_t n);

// log2(n!) via lgamma — accurate for all n that fit a double exponent.
double log2_factorial(std::uint64_t n);

// log2 of r = n!/(2^{n/2} (n/2)!), the number of perfect-matching partitions
// of [n] (n even): the row/column count of the TwoPartition matrix E_n.
double log2_double_factorial_odd(std::uint64_t n);

// Exact n!/(2^{n/2} (n/2)!) = (n-1)!! for even n; requires the result to fit
// in u64 (n <= 40 or so).
std::uint64_t perfect_matching_count(std::uint64_t n);

// Smallest k with 2^k >= v (v >= 1).
unsigned ceil_log2(std::uint64_t v);

// Number of bits needed to write v (bit_width; 0 -> 0).
unsigned bit_width_u64(std::uint64_t v);

}  // namespace bcclb
