// Tests for packed_rank, the in-memory entry point of the tiled elimination
// kernel, against schoolbook GF(2) and mod-p references.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "linalg/tiled_rank.h"
#include "partition/join_matrix.h"
#include "schoolbook_rank.h"

namespace bcclb {
namespace {

BoolMatrix bool_matrix(std::size_t rows, std::size_t cols,
                       std::initializer_list<std::uint8_t> entries) {
  BoolMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.data.assign(entries);
  return m;
}

BoolMatrix zero_matrix(std::size_t rows, std::size_t cols) {
  BoolMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.data.assign(rows * cols, 0);
  return m;
}

BoolMatrix random_matrix(std::size_t rows, std::size_t cols, double density, Rng& rng) {
  BoolMatrix m = zero_matrix(rows, cols);
  for (auto& x : m.data) x = rng.next_bernoulli(density) ? 1 : 0;
  return m;
}

std::size_t rank_of(const BoolMatrix& m, RankField field, std::uint64_t prime = kPrime30A,
                    unsigned threads = 0) {
  const std::vector<std::uint64_t> bits = m.packed_rows();
  return packed_rank(m.rows, m.cols, (m.cols + 63) / 64, bits.data(), field, prime, threads);
}

TEST(PackedRank, IdentityFullRank) {
  BoolMatrix m = zero_matrix(5, 5);
  for (std::size_t i = 0; i < 5; ++i) m.at(i, i) = 1;
  EXPECT_EQ(rank_of(m, RankField::kGf2), 5u);
  EXPECT_EQ(rank_of(m, RankField::kModp), 5u);
}

TEST(PackedRank, ZeroRankZero) {
  EXPECT_EQ(rank_of(zero_matrix(4, 6), RankField::kGf2), 0u);
  EXPECT_EQ(rank_of(zero_matrix(4, 6), RankField::kModp), 0u);
  EXPECT_EQ(rank_of(zero_matrix(0, 6), RankField::kGf2), 0u);
  EXPECT_EQ(rank_of(zero_matrix(3, 0), RankField::kModp), 0u);
}

TEST(PackedRank, DuplicateRowsLoseRank) {
  const auto bm = bool_matrix(3, 3, {1, 0, 1, 1, 0, 1, 0, 1, 0});
  EXPECT_EQ(rank_of(bm, RankField::kGf2), 2u);
  EXPECT_EQ(rank_of(bm, RankField::kModp), 2u);
}

TEST(PackedRank, FieldChangesRank) {
  // Rows 1 and 2 sum to row 3 over GF(2) only: rank 2 there, 3 over Q.
  const auto bm = bool_matrix(3, 3, {1, 1, 0, 0, 1, 1, 1, 0, 1});
  EXPECT_EQ(rank_of(bm, RankField::kGf2), 2u);
  EXPECT_EQ(rank_of(bm, RankField::kModp), 3u);
}

TEST(PackedRank, RankAtMostMinDim) {
  Rng rng(5);
  const BoolMatrix m = random_matrix(7, 3, 0.5, rng);
  EXPECT_LE(rank_of(m, RankField::kGf2), 3u);
  EXPECT_LE(rank_of(m, RankField::kModp), 3u);
}

TEST(PackedRank, WideMatrixBeyondOneWord) {
  // 100 columns crosses the 64-bit word boundary.
  BoolMatrix m = zero_matrix(100, 100);
  for (std::size_t i = 0; i < 100; ++i) m.at(i, 99 - i) = 1;
  EXPECT_EQ(rank_of(m, RankField::kGf2), 100u);
  EXPECT_EQ(rank_of(m, RankField::kModp), 100u);
}

TEST(PackedRank, IgnoresBitsPastCols) {
  // Rows padded to two words, differing only past column 70 for rows 1 and
  // 2: only the first 70 columns count, so those two rows are equal.
  const std::size_t words = 2;
  std::vector<std::uint64_t> bits(3 * words, ~0ULL);
  bits[0 * words + 1] = ~0ULL << 6;  // row 0: columns 64..69 zero
  bits[2 * words + 1] = 0x3f;        // row 2: row 1 without the padding bits
  EXPECT_EQ(packed_rank(3, 70, words, bits.data(), RankField::kGf2, 0), 2u);
  EXPECT_EQ(packed_rank(3, 70, words, bits.data(), RankField::kModp, kPrime30A), 2u);
}

TEST(PackedRank, MatchesSchoolbookOnRandomShapes) {
  Rng rng(33);
  // Partial final batches, rows above and below the four-Russians threshold,
  // multi-word rows, tall and wide, and heights past one 256-row tile.
  const std::size_t shapes[][2] = {{1, 1},    {7, 13},   {64, 64},   {65, 100},
                                   {100, 65}, {300, 40}, {40, 300},  {129, 129},
                                   {600, 130}, {257, 300}};
  for (const auto& s : shapes) {
    for (double density : {0.05, 0.5, 0.95}) {
      const BoolMatrix m = random_matrix(s[0], s[1], density, rng);
      EXPECT_EQ(rank_of(m, RankField::kGf2), schoolbook_gf2_rank(m))
          << s[0] << "x" << s[1] << " density " << density;
      EXPECT_EQ(rank_of(m, RankField::kModp), schoolbook_modp_rank(m, kPrime30A))
          << s[0] << "x" << s[1] << " density " << density;
    }
  }
}

TEST(PackedRank, SmallPrimesMatchSchoolbook) {
  // Small primes make the mod-p pass lose rank often, exercising the in-tile
  // normalization (pivot entries other than 1) and zero rows.
  Rng rng(37);
  for (std::uint64_t p : {2u, 3u, 5u}) {
    const BoolMatrix m = random_matrix(300, 90, 0.5, rng);
    EXPECT_EQ(rank_of(m, RankField::kModp, p), schoolbook_modp_rank(m, p)) << "p=" << p;
  }
}

TEST(PackedRank, RankIsIdenticalAtEveryThreadCount) {
  Rng rng(34);
  const BoolMatrix m = random_matrix(600, 300, 0.3, rng);
  for (RankField field : {RankField::kGf2, RankField::kModp}) {
    const std::size_t serial = rank_of(m, field, kPrime30A, 1);
    for (unsigned threads : {2u, 8u}) {
      EXPECT_EQ(rank_of(m, field, kPrime30A, threads), serial)
          << rank_field_name(field) << " threads=" << threads;
    }
  }
}

TEST(PackedRank, RejectsPrimeAboveDeferredReductionBound) {
  EXPECT_THROW(rank_of(zero_matrix(2, 2), RankField::kModp, 1ULL << 31),
               std::invalid_argument);
}

TEST(RankCrossCheck, Gf2VsModpOnRandomJoinSubmatrices) {
  // Random principal submatrices of the join matrix M_6. Both ranks lower-
  // bound the rational rank; GF(2) can lose genuinely more (M_n itself has
  // GF(2) rank 2^{n-1}), so the contract is rank_gf2 <= rank_modp, with
  // equality forced whenever GF(2) already certifies full rank.
  const BoolMatrix m6 = partition_join_matrix(6);
  Rng rng(36);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < m6.rows; ++i) {
      if (rng.next_bernoulli(0.3)) keep.push_back(i);
    }
    if (keep.empty()) continue;
    BoolMatrix sub = zero_matrix(keep.size(), keep.size());
    for (std::size_t r = 0; r < keep.size(); ++r) {
      for (std::size_t c = 0; c < keep.size(); ++c) {
        sub.at(r, c) = m6.at(keep[r], keep[c]);
      }
    }
    const std::size_t r2 = rank_of(sub, RankField::kGf2);
    const std::size_t rp = rank_of(sub, RankField::kModp);
    EXPECT_LE(r2, rp) << "trial " << trial << " dim " << keep.size();
    if (r2 == keep.size()) {
      EXPECT_EQ(rp, keep.size());
    }
  }
}

TEST(ModpInverse, IsCorrect) {
  for (std::uint64_t x : std::initializer_list<std::uint64_t>{2, 3, 123456, kPrime30A - 1}) {
    const std::uint64_t inv = modp_inverse(x, kPrime30A);
    EXPECT_EQ((static_cast<unsigned __int128>(x) * inv) % kPrime30A, 1u);
  }
  EXPECT_THROW(modp_inverse(0, kPrime30A), std::invalid_argument);
}

TEST(PackedRank, ModpFullWheneverGf2Full) {
  // An odd determinant is nonzero over Q, so full rank over GF(2) forces
  // full rational rank; a 12 x 12 0/1 determinant (|det| < 2^30) cannot
  // vanish mod a 30-bit prime unless it is zero.
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const BoolMatrix bm = random_matrix(12, 12, 0.5, rng);
    const std::size_t r2 = rank_of(bm, RankField::kGf2);
    const std::size_t rp = rank_of(bm, RankField::kModp);
    EXPECT_LE(r2, 12u);
    EXPECT_LE(rp, 12u);
    if (r2 == 12u) {
      EXPECT_EQ(rp, 12u);
    }
  }
}

TEST(PackedRank, TwoPrimesAgreeOnIntegerMatrix) {
  Rng rng(21);
  const BoolMatrix bm = random_matrix(10, 10, 0.5, rng);
  EXPECT_EQ(rank_of(bm, RankField::kModp, kPrime30A), rank_of(bm, RankField::kModp, kPrime30B));
}

}  // namespace
}  // namespace bcclb
