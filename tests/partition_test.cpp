// Tests for the set-partition lattice, Bell numbers, enumeration, indexing,
// sampling, perfect-matching partitions, and the Dowling–Wilson
// factorization M_n = Z·D·Zᵀ behind Theorem 2.3.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/random.h"
#include "partition/bell.h"
#include "partition/enumeration.h"
#include "partition/join_matrix.h"
#include "partition/moebius.h"
#include "partition/pair_partition.h"
#include "partition/sampling.h"
#include "partition/set_partition.h"

namespace bcclb {
namespace {

SetPartition from_blocks(std::size_t n, std::vector<std::vector<std::uint32_t>> blocks) {
  return SetPartition::from_blocks(n, blocks);
}

TEST(SetPartition, RgsValidation) {
  EXPECT_NO_THROW(SetPartition({0, 1, 0, 2}));
  EXPECT_THROW(SetPartition({1, 0}), std::invalid_argument);
  EXPECT_THROW(SetPartition({0, 2}), std::invalid_argument);
}

TEST(SetPartition, FinestAndCoarsest) {
  const auto f = SetPartition::finest(5);
  const auto c = SetPartition::coarsest(5);
  EXPECT_TRUE(f.is_finest());
  EXPECT_EQ(f.num_blocks(), 5u);
  EXPECT_TRUE(c.is_coarsest());
  EXPECT_EQ(c.num_blocks(), 1u);
  EXPECT_TRUE(f.refines(c));
  EXPECT_FALSE(c.refines(f));
}

TEST(SetPartition, FromBlocksAndToString) {
  // The paper's example: PA = (1,2)(3,4)(5) — 0-based blocks {0,1},{2,3},{4}.
  const auto pa = from_blocks(5, {{0, 1}, {2, 3}, {4}});
  EXPECT_EQ(pa.to_string(), "(1,2)(3,4)(5)");
  EXPECT_EQ(pa.num_blocks(), 3u);
  EXPECT_TRUE(pa.same_block(0, 1));
  EXPECT_FALSE(pa.same_block(1, 2));
}

TEST(SetPartition, FromBlocksValidates) {
  EXPECT_THROW(from_blocks(3, {{0, 1}}), std::invalid_argument);          // missing 2
  EXPECT_THROW(from_blocks(3, {{0, 1}, {1, 2}}), std::invalid_argument);  // overlap
  EXPECT_THROW(from_blocks(3, {{0, 1, 5}}), std::invalid_argument);       // out of range
}

TEST(SetPartition, PaperJoinExamples) {
  // Section 1.1: PA = (1,2)(3,4)(5), PB = (1,2,4)(3)(5), PC = (1,2,4)(3,5).
  const auto pa = from_blocks(5, {{0, 1}, {2, 3}, {4}});
  const auto pb = from_blocks(5, {{0, 1, 3}, {2}, {4}});
  const auto pc = from_blocks(5, {{0, 1, 3}, {2, 4}});
  EXPECT_EQ(pa.join(pb).to_string(), "(1,2,3,4)(5)");
  EXPECT_EQ(pa.join(pc).to_string(), "(1,2,3,4,5)");
  EXPECT_TRUE(pa.join(pc).is_coarsest());
  EXPECT_FALSE(pa.join(pb).is_coarsest());
}

TEST(SetPartition, PaperRefinementExample) {
  // Footnote 2: (1,2)(3,4)(5) is a refinement of (1,2)(3,4,5).
  const auto fine = from_blocks(5, {{0, 1}, {2, 3}, {4}});
  const auto coarse = from_blocks(5, {{0, 1}, {2, 3, 4}});
  EXPECT_TRUE(fine.refines(coarse));
  EXPECT_FALSE(coarse.refines(fine));
}

class LatticeLaws : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LatticeLaws, JoinIsTheLeastUpperBound) {
  const std::size_t n = GetParam();
  const auto parts = all_partitions(n);
  for (const auto& p : parts) {
    EXPECT_EQ(p.join(p), p);
    EXPECT_TRUE(p.refines(p));
    for (const auto& q : parts) {
      const auto j = p.join(q);
      EXPECT_EQ(j, q.join(p));
      EXPECT_TRUE(p.refines(j));
      EXPECT_TRUE(q.refines(j));
      // Every common coarsening of p and q coarsens the join.
      for (const auto& r : parts) {
        if (p.refines(r) && q.refines(r)) {
          EXPECT_TRUE(j.refines(r));
        }
      }
    }
  }
}

TEST_P(LatticeLaws, JoinIsLeastUpperBound) {
  const std::size_t n = GetParam();
  const auto parts = all_partitions(n);
  for (const auto& p : parts) {
    for (const auto& q : parts) {
      const auto j = p.join(q);
      for (const auto& u : parts) {
        if (p.refines(u) && q.refines(u)) {
          EXPECT_TRUE(j.refines(u)) << p.to_string() << " v " << q.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrounds, LatticeLaws, ::testing::Values(1, 2, 3, 4));

TEST(Bell, KnownValues) {
  const std::uint64_t known[] = {1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975};
  for (std::size_t n = 0; n <= 10; ++n) {
    EXPECT_EQ(bell_number_u64(n), known[n]) << "n=" << n;
  }
  EXPECT_EQ(bell_number(25).to_decimal(), "4638590332229999353");
  // B_26 overflows u64.
  EXPECT_FALSE(bell_number(26).fits_u64());
  EXPECT_THROW(bell_number_u64(26), std::invalid_argument);
}

TEST(Bell, Log2MatchesExactForSmallN) {
  for (std::size_t n = 1; n <= 20; ++n) {
    EXPECT_NEAR(log2_bell(n), bell_number(n).log2(), 1e-12);
  }
  // Θ(n log n) growth: log2(B_n) / (n log2 n) stays in a mild band.
  const double r100 = log2_bell(100) / (100 * std::log2(100.0));
  EXPECT_GT(r100, 0.3);
  EXPECT_LT(r100, 1.0);
}

TEST(Bell, StirlingRowsSumToBell) {
  for (std::size_t n = 1; n <= 12; ++n) {
    BigUint sum(0);
    for (std::size_t k = 0; k <= n; ++k) sum += stirling2(n, k);
    EXPECT_EQ(sum, bell_number(n)) << "n=" << n;
  }
}

TEST(Enumeration, CountsMatchBell) {
  for (std::size_t n = 1; n <= 8; ++n) {
    EXPECT_EQ(all_partitions(n).size(), bell_number_u64(n)) << "n=" << n;
  }
}

TEST(Enumeration, AllDistinctAndFirstIsCoarsest) {
  const auto parts = all_partitions(5);
  std::set<std::vector<std::uint32_t>> seen;
  for (const auto& p : parts) seen.insert(p.rgs());
  EXPECT_EQ(seen.size(), parts.size());
  EXPECT_TRUE(parts.front().is_coarsest());  // all-zero RGS
  EXPECT_TRUE(parts.back().is_finest());     // 0,1,2,3,4
}

TEST(Enumeration, IndexIsInverseOfOrder) {
  for (std::size_t n : {1u, 3u, 5u, 7u}) {
    const auto parts = all_partitions(n);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(partition_index(parts[i]), i) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Enumeration, ForEachEarlyStop) {
  std::size_t count = 0;
  for_each_partition(6, [&](const SetPartition&) { return ++count < 10; });
  EXPECT_EQ(count, 10u);
}

TEST(Sampling, UniformPartitionIsUniform) {
  // Exact uniformity check by frequency over all B_4 = 15 partitions.
  Rng rng(123);
  std::map<std::vector<std::uint32_t>, int> freq;
  const int trials = 30000;
  for (int i = 0; i < trials; ++i) freq[uniform_partition(4, rng).rgs()]++;
  EXPECT_EQ(freq.size(), 15u);
  for (const auto& [rgs, count] : freq) {
    EXPECT_GT(count, trials / 15 - 400);
    EXPECT_LT(count, trials / 15 + 400);
  }
}

TEST(PerfectMatchings, CountAndShape) {
  for (std::size_t n : {2u, 4u, 6u, 8u}) {
    const auto all = all_perfect_matchings(n);
    EXPECT_EQ(all.size(), num_perfect_matchings(n));
    for (const auto& m : all) EXPECT_TRUE(m.is_perfect_matching());
  }
}

TEST(PerfectMatchings, IndexRoundTrip) {
  const std::size_t n = 8;
  const auto all = all_perfect_matchings(n);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(perfect_matching_index(all[i]), i);
    EXPECT_EQ(perfect_matching_from_index(n, i), all[i]);
  }
}

TEST(PerfectMatchings, RandomIsUniform) {
  Rng rng(9);
  std::map<std::uint64_t, int> freq;
  const int trials = 15000;
  for (int i = 0; i < trials; ++i) {
    freq[perfect_matching_index(random_perfect_matching(6, rng))]++;
  }
  EXPECT_EQ(freq.size(), 15u);
  for (const auto& [idx, count] : freq) {
    EXPECT_GT(count, trials / 15 - 300);
    EXPECT_LT(count, trials / 15 + 300);
  }
}

TEST(PerfectMatchings, NonMatchingRejected) {
  EXPECT_THROW(perfect_matching_index(SetPartition::coarsest(4)), std::invalid_argument);
  EXPECT_FALSE(SetPartition::coarsest(4).is_perfect_matching());
  EXPECT_FALSE(SetPartition::finest(4).is_perfect_matching());
}

TEST(Whitney, BlockCountsFollowStirling) {
  // Whitney numbers of the second kind of Π_n: the number of partitions
  // with exactly k blocks is S(n, k).
  for (std::size_t n = 1; n <= 8; ++n) {
    std::map<std::size_t, std::uint64_t> by_blocks;
    for_each_partition(n, [&](const SetPartition& p) {
      ++by_blocks[p.num_blocks()];
      return true;
    });
    for (std::size_t k = 1; k <= n; ++k) {
      EXPECT_EQ(BigUint(by_blocks[k]), stirling2(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Moebius, BottomTopIsSignedFactorial) {
  // µ(0̂, 1̂) of Π_n = (-1)^{n-1} (n-1)! — the geometric-lattice identity
  // behind the Dowling–Wilson rank theorem (Theorem 2.3's citation).
  std::int64_t factorial = 1;
  for (std::size_t n = 1; n <= 6; ++n) {
    if (n > 1) factorial *= static_cast<std::int64_t>(n - 1);
    const std::int64_t expect = (n % 2 == 1 ? 1 : -1) * factorial;
    EXPECT_EQ(moebius_bottom_top(n), expect) << "n=" << n;
  }
}

TEST(Moebius, SumOverLatticeIsZero) {
  // Σ_{ρ <= 1̂} µ(0̂, ρ) = 0 for n >= 2 (defining recursion at the top).
  for (std::size_t n = 2; n <= 6; ++n) {
    const auto mu = moebius_from_finest(n);
    std::int64_t sum = 0;
    for (std::int64_t v : mu) sum += v;
    EXPECT_EQ(sum, 0) << "n=" << n;
  }
}

TEST(Moebius, CharacteristicPolynomialIsFallingFactorial) {
  // χ_{Π_n}(x) = x (x-1) ... (x-n+1): a full structural certificate that
  // our refinement order realizes the partition lattice.
  for (std::size_t n = 1; n <= 6; ++n) {
    EXPECT_EQ(characteristic_polynomial(n), falling_factorial_coefficients(n)) << "n=" << n;
  }
}

TEST(Moebius, IntervalSignsAlternateByCorank) {
  // µ(0̂, π) has sign (-1)^(n - #blocks(π)) in a geometric lattice.
  const std::size_t n = 5;
  const auto parts = all_partitions(n);
  const auto mu = moebius_from_finest(n);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::size_t corank = n - parts[i].num_blocks();
    const std::int64_t sign = (corank % 2 == 0) ? 1 : -1;
    EXPECT_GT(mu[i] * sign, 0) << parts[i].to_string();
  }
}

// ---- Dowling–Wilson factorization (Theorem 2.3) -----------------------------

// µ(x, 1̂) for a partition x with k blocks, in closed form: [x, 1̂] ≅ Π_k,
// so it is µ_{Π_k}(0̂, 1̂) = (-1)^{k-1} (k-1)!.
std::int64_t moebius_to_top(std::size_t k) {
  std::int64_t factorial = 1;
  for (std::size_t i = 2; i < k; ++i) factorial *= static_cast<std::int64_t>(i);
  return k % 2 == 1 ? factorial : -factorial;
}

TEST(DowlingWilson, ClosedFormMoebiusMatchesTheLatticeRecursion) {
  // [0̂, π] ≅ ∏ over the blocks B of π of Π_|B|, so the closed form, taken
  // per block, must reproduce every value moebius_from_finest computes.
  for (std::size_t n = 1; n <= 7; ++n) {
    const auto parts = all_partitions(n);
    const auto mu = moebius_from_finest(n);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      std::int64_t product = 1;
      for (const auto& block : parts[i].blocks()) product *= moebius_to_top(block.size());
      EXPECT_EQ(mu[i], product) << parts[i].to_string();
    }
  }
}

TEST(DowlingWilson, JoinMatrixFactorsExactly) {
  // M_n(P, Q) = [P ∨ Q = 1̂] = Σ_x Z[P][x] µ(x, 1̂) Z[Q][x] with
  // Z[P][x] = [P ≤ x]: the factorization predicted_join_rank rests on.
  for (std::size_t n = 1; n <= 7; ++n) {
    const auto parts = all_partitions(n);
    const std::size_t b = parts.size();
    // Z·D·Zᵀ accumulated one column x of Z at a time: D[x] lands on every
    // pair of partitions below x.
    std::vector<std::int64_t> product(b * b, 0);
    std::vector<std::size_t> below;
    for (std::size_t x = 0; x < b; ++x) {
      below.clear();
      for (std::size_t p = 0; p < b; ++p) {
        if (parts[p].refines(parts[x])) below.push_back(p);
      }
      const std::int64_t d = moebius_to_top(parts[x].num_blocks());
      for (const std::size_t p : below) {
        for (const std::size_t q : below) product[p * b + q] += d;
      }
    }
    const BoolMatrix m = partition_join_matrix(n);
    ASSERT_EQ(m.rows, b);
    std::size_t mismatches = 0;
    for (std::size_t p = 0; p < b; ++p) {
      for (std::size_t q = 0; q < b; ++q) {
        mismatches += product[p * b + q] != static_cast<std::int64_t>(m.at(p, q)) ? 1 : 0;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n;
  }
}

}  // namespace
}  // namespace bcclb
