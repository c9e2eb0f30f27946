// Bell numbers B_n — the sizes of the Partition input spaces.
//
// Corollary 2.4's Ω(n log n) bound is log2(rank(M_n)) = log2(B_n); the
// Theorem 4.5 hard distribution has entropy log2(B_n). Exact values come
// from the Bell triangle over BigUint; log2 values are exact to double
// precision via BigUint::log2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bigint.h"

namespace bcclb {

// Exact B_n (B_0 = 1, B_1 = 1, B_2 = 2, B_3 = 5, ...). Cached internally;
// supports n up to a few hundred.
const BigUint& bell_number(std::size_t n);

// log2(B_n); requires n >= 0 (B_0 = 1 gives 0).
double log2_bell(std::size_t n);

// B_n as u64; requires n <= 25 (B_25 is the last Bell number below 2^64).
std::uint64_t bell_number_u64(std::size_t n);

// Stirling numbers of the second kind S(n, k): partitions of [n] into
// exactly k blocks. Used by predicted_join_rank.
const BigUint& stirling2(std::size_t n, std::size_t k);

// Rank of the join matrix M_n over GF(p), p prime (p = 2 is GF(2)):
// sum_{k=1}^{min(p, n)} S(n, k). M_n = Z D Z^T with Z(x, z) = [x <= z]
// unitriangular and D = diag(mu(z, 1)), mu(z, 1) = (-1)^{k-1} (k-1)! for z
// with k blocks, which is zero mod p exactly when k > p. So GF(2) gives
// 2^{n-1} and any p >= n gives B_n (Theorem 2.3). The independent oracle
// for the elimination kernel (linalg/tiled_rank.h). Requires
// 1 <= n <= 25.
std::uint64_t predicted_join_rank(std::size_t n, std::uint64_t p);

}  // namespace bcclb
