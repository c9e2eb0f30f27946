// The Möbius function of the partition lattice Π_n — the combinatorial
// engine behind the Dowling–Wilson theorem the paper invokes as Theorem 2.3.
//
// Π_n ordered by refinement is a geometric lattice; its Möbius function
// satisfies µ(0̂, 1̂) = (-1)^{n-1} (n-1)! and its characteristic polynomial
// is the falling factorial x(x-1)...(x-n+1). Verifying these identities
// machine-checks that our refinement order and join implementation
// really form the lattice whose rank properties power Corollary 2.4.
//
// Exhaustive over all B_n partitions: keep n <= 7 (877 elements, O(B_n^2)
// order relation).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "partition/set_partition.h"

namespace bcclb {

// Möbius values µ(0̂, π) for every π in Π_n, indexed in RGS-lexicographic
// order (0̂ = finest partition). Values are exact (64-bit; fine for n <= 7).
std::vector<std::int64_t> moebius_from_finest(std::size_t n);

// µ(0̂, 1̂) — should equal (-1)^{n-1} (n-1)!.
std::int64_t moebius_bottom_top(std::size_t n);

// Coefficients of the characteristic polynomial
//   χ(x) = Σ_π µ(0̂, π) x^{#blocks(π)}
// as a map exponent -> coefficient; equals the falling factorial
// x (x-1) ... (x-n+1).
std::map<std::size_t, std::int64_t> characteristic_polynomial(std::size_t n);

// Coefficients of x(x-1)...(x-n+1) (signed Stirling numbers of the first
// kind), for the comparison.
std::map<std::size_t, std::int64_t> falling_factorial_coefficients(std::size_t n);

}  // namespace bcclb
