// Tests for the common substrate: RNG, public coins, hash mixers, BigUint,
// math helpers, and the parallel_for / parallel_for_blocks contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <bit>
#include <cstdlib>
#include <optional>

#include "common/bigint.h"
#include "common/bitset_reduce.h"
#include "common/check.h"
#include "common/env.h"
#include "common/errors.h"
#include "common/mathutil.h"
#include "common/parallel.h"
#include "common/random.h"

namespace bcclb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, trials / 10 - 600);
    EXPECT_LT(c, trials / 10 + 600);
  }
}

TEST(Rng, NextInBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::multiset<int> a(v.begin(), v.end()), b(w.begin(), w.end());
  EXPECT_EQ(a, b);
}

TEST(PublicCoins, SameSeedSameBits) {
  PublicCoins a(123, 256), b(123, 256);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(a.bit(i), b.bit(i));
}

TEST(PublicCoins, OutOfRangeThrows) {
  PublicCoins coins(1, 10);
  EXPECT_THROW(coins.bit(10), std::invalid_argument);
}

TEST(PublicCoins, WordMatchesBits) {
  PublicCoins coins(77, 128);
  const std::uint64_t w = coins.word(3, 16);
  for (unsigned k = 0; k < 16; ++k) {
    EXPECT_EQ((w >> (15 - k)) & 1, static_cast<std::uint64_t>(coins.bit(3 + k)));
  }
}

// The mixers feed digests, shard scores and chaos byte picks, so their exact
// outputs are part of the repository's behaviour.
TEST(HashMixers, SplitMix64MixIsPinned) {
  EXPECT_EQ(splitmix64_mix(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64_mix(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64_mix(0x0123456789abcdefULL), 0x157a3807a48faa9dULL);
}

TEST(HashMixers, Fmix64IsPinned) {
  EXPECT_EQ(fmix64(0), 0u);
  EXPECT_EQ(fmix64(1), 0xb456bcfc34c2cb2cULL);
  EXPECT_EQ(fmix64(0x0123456789abcdefULL), 0x87cbfbfe89022ceaULL);
}

TEST(BigUint, SmallArithmetic) {
  BigUint a(7), b(5);
  EXPECT_EQ((a + b).to_u64(), 12u);
  EXPECT_EQ((a - b).to_u64(), 2u);
  EXPECT_EQ((a * b).to_u64(), 35u);
  EXPECT_EQ((a * 1000u).to_u64(), 7000u);
}

TEST(BigUint, SubtractUnderflowThrows) {
  EXPECT_THROW(BigUint(3) - BigUint(5), std::invalid_argument);
}

TEST(BigUint, LargeMultiplication) {
  // 2^64 * 2^64 = 2^128: build via repeated doubling.
  BigUint x(1);
  for (int i = 0; i < 64; ++i) x *= 2;
  const BigUint sq = x * x;
  EXPECT_EQ(sq.bit_length(), 129u);
  EXPECT_NEAR(sq.log2(), 128.0, 1e-9);
}

TEST(BigUint, DecimalRoundTrip) {
  const std::string s = "123456789012345678901234567890";
  EXPECT_EQ(BigUint::from_decimal(s).to_decimal(), s);
}

TEST(BigUint, DecimalOfZeroAndSmall) {
  EXPECT_EQ(BigUint(0).to_decimal(), "0");
  EXPECT_EQ(BigUint(42).to_decimal(), "42");
}

TEST(BigUint, CompareOrdering) {
  EXPECT_LT(BigUint(3), BigUint(5));
  EXPECT_GT(BigUint::from_decimal("100000000000000000000"), BigUint(UINT64_MAX));
  EXPECT_EQ(BigUint(7), BigUint(7));
}

TEST(BigUint, Log2KnownValues) {
  EXPECT_NEAR(BigUint(1024).log2(), 10.0, 1e-12);
  EXPECT_NEAR(BigUint(1000).log2(), std::log2(1000.0), 1e-12);
}

TEST(BigUint, FitsU64Boundary) {
  EXPECT_TRUE(BigUint(UINT64_MAX).fits_u64());
  BigUint big = BigUint(UINT64_MAX) + BigUint(1);
  EXPECT_FALSE(big.fits_u64());
  EXPECT_THROW(big.to_u64(), std::invalid_argument);
}

TEST(MathUtil, HarmonicValues) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_NEAR(harmonic(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  // Asymptotic branch agrees with the direct sum at the crossover.
  double direct = 0;
  for (int i = 1; i <= 20000; ++i) direct += 1.0 / i;
  EXPECT_NEAR(harmonic(20000), direct, 1e-9);
}

TEST(MathUtil, Log2Factorial) {
  EXPECT_NEAR(log2_factorial(5), std::log2(120.0), 1e-9);
  EXPECT_NEAR(log2_factorial(0), 0.0, 1e-12);
}

TEST(MathUtil, PerfectMatchingCounts) {
  EXPECT_EQ(perfect_matching_count(2), 1u);
  EXPECT_EQ(perfect_matching_count(4), 3u);
  EXPECT_EQ(perfect_matching_count(6), 15u);
  EXPECT_EQ(perfect_matching_count(8), 105u);
  EXPECT_EQ(perfect_matching_count(10), 945u);
  EXPECT_EQ(perfect_matching_count(12), 10395u);
}

TEST(MathUtil, Log2DoubleFactorialMatchesExact) {
  for (std::uint64_t n = 2; n <= 20; n += 2) {
    EXPECT_NEAR(log2_double_factorial_odd(n),
                std::log2(static_cast<double>(perfect_matching_count(n))), 1e-9)
        << "n=" << n;
  }
}

TEST(MathUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1ULL << 40), 40u);
  EXPECT_EQ(ceil_log2((1ULL << 40) + 1), 41u);
}

TEST(MathUtil, CheckedPow) {
  EXPECT_EQ(checked_pow(3, 4), 81u);
  EXPECT_EQ(checked_pow(10, 0), 1u);
  EXPECT_THROW(checked_pow(2, 64), std::invalid_argument);
}

TEST(Check, RequireMessageNamesExpressionFileAndReason) {
  try {
    BCCLB_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("requirement failed: 1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("one is not two"), std::string::npos) << what;
  }
}

TEST(Check, CheckThrowsLogicErrorWithoutTrailingDashWhenMessageEmpty) {
  try {
    BCCLB_CHECK(false, "");
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("internal check failed: false"), std::string::npos) << what;
    EXPECT_EQ(what.find("—"), std::string::npos) << what;
  }
}

TEST(Check, ExpressionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  const auto touch = [&] {
    ++evaluations;
    return true;
  };
  BCCLB_REQUIRE(touch(), "must pass");
  EXPECT_EQ(evaluations, 1);
  BCCLB_CHECK(touch(), "must pass");
  EXPECT_EQ(evaluations, 2);
}

TEST(Errors, WhatCarriesInstanceVertexAndRound) {
  const BandwidthViolationError e("too wide", {0xabcdef1234567890ULL, 3, 7});
  const std::string what = e.what();
  EXPECT_NE(what.find("too wide"), std::string::npos) << what;
  EXPECT_NE(what.find("instance=abcdef1234567890"), std::string::npos) << what;
  EXPECT_NE(what.find("vertex 3"), std::string::npos) << what;
  EXPECT_NE(what.find("round 7"), std::string::npos) << what;
  EXPECT_EQ(e.context().vertex, 3);
  EXPECT_EQ(e.context().round, 7);
}

TEST(Errors, DefaultContextAddsNoSuffix) {
  const RoundLimitError e("ran out of rounds");
  EXPECT_STREQ(e.what(), "ran out of rounds");
  EXPECT_EQ(e.context().instance_digest, 0u);
}

TEST(Errors, KindAndTransienceIdentifyTheLeafType) {
  EXPECT_STREQ(BandwidthViolationError("x").kind(), "BandwidthViolationError");
  EXPECT_STREQ(RoundLimitError("x").kind(), "RoundLimitError");
  EXPECT_STREQ(FaultInjectionError("x").kind(), "FaultInjectionError");
  EXPECT_STREQ(JobTimeoutError("x").kind(), "JobTimeoutError");
  EXPECT_STREQ(RangeViolationError("x").kind(), "RangeViolationError");

  EXPECT_TRUE(FaultInjectionError("x").transient());
  EXPECT_FALSE(BandwidthViolationError("x").transient());
  EXPECT_FALSE(JobTimeoutError("x").transient());
}

TEST(Errors, CatchableUnderTheLegacyInvalidArgumentContract) {
  // The library's historical contract throws std::invalid_argument for model
  // violations; the typed hierarchy must remain catchable through it.
  try {
    throw BandwidthViolationError("over budget", {0, 1, 2});
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("over budget"), std::string::npos);
  }
  // And through the shared base, with the structured context intact.
  try {
    throw JobTimeoutError("late", {0, -1, 9});
  } catch (const BcclbError& e) {
    EXPECT_STREQ(e.kind(), "JobTimeoutError");
    EXPECT_EQ(e.context().round, 9);
  }
}

// The blocks handed out for (count, threads): each body call records its
// [begin, end) range.
std::vector<std::pair<std::size_t, std::size_t>> record_blocks(std::size_t count,
                                                               unsigned threads) {
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  parallel_for_blocks(count, threads, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(m);
    blocks.emplace_back(begin, end);
  });
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

TEST(ParallelForBlocks, ZeroItemsNeverInvokesTheBody) {
  for (const unsigned threads : {0u, 1u, 4u}) {
    EXPECT_TRUE(record_blocks(0, threads).empty()) << "threads " << threads;
  }
}

TEST(ParallelForBlocks, OneItemRunsInlineAsASingleBlock) {
  const auto blocks = record_blocks(1, 8);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], std::make_pair(std::size_t{0}, std::size_t{1}));
}

TEST(ParallelForBlocks, MoreWorkersThanItemsStillCoversEveryIndexOnce) {
  // threads (16) > count (5): blocks must still tile [0, 5) exactly.
  const auto blocks = record_blocks(5, 16);
  ASSERT_FALSE(blocks.empty());
  EXPECT_LE(blocks.size(), 5u);
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : blocks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LT(begin, end);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 5u);
}

TEST(ParallelForBlocks, SingleThreadRunsOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  parallel_for_blocks(100, 1, [&](std::size_t, std::size_t) {
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, caller);
}

TEST(ParallelForBlocks, ShardingIsAPureFunctionOfCountAndThreads) {
  // Same (count, threads) must shard identically on every call — the replay
  // guarantee — and the uneven remainder goes to the leading blocks.
  const auto first = record_blocks(17, 4);
  const auto second = record_blocks(17, 4);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0], std::make_pair(std::size_t{0}, std::size_t{5}));  // 17 % 4 = 1 extra
  EXPECT_EQ(first[3].second, 17u);
}

TEST(ParallelForBlocks, ParallelSumBitIdenticalToSerial) {
  const std::size_t count = 1000;
  std::vector<std::uint64_t> serial(count), parallel(count);
  const auto fill = [](std::vector<std::uint64_t>& out) {
    return [&out](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = i * 0x9e3779b97f4a7c15ULL;
    };
  };
  parallel_for_blocks(count, 1, fill(serial));
  parallel_for_blocks(count, 7, fill(parallel));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, EveryIndexOnceOnAWorkerBelowTheWidth) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> visits(50);
    std::atomic<unsigned> max_worker{0};
    parallel_for(visits.size(), threads, [&](unsigned worker, std::size_t i) {
      ++visits[i];
      unsigned seen = max_worker.load();
      while (worker > seen && !max_worker.compare_exchange_weak(seen, worker)) {
      }
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1) << "threads " << threads;
    EXPECT_LT(max_worker.load(), threads);
  }
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
  for (const unsigned threads : {1u, 4u}) {
    try {
      parallel_for(64, threads, [](unsigned, std::size_t i) {
        if (i % 10 == 7) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7") << "threads " << threads;
    }
  }
}

TEST(ParallelForBlocks, LowestFailingBlockWins) {
  try {
    parallel_for_blocks(40, 4, [](std::size_t begin, std::size_t) {
      if (begin > 0) throw std::runtime_error(std::to_string(begin));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "10");
  }
}

// ---- strict env parsing (common/env.h) --------------------------------------

TEST(EnvParse, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_env_u64("0"), 0u);
  EXPECT_EQ(parse_env_u64("7"), 7u);
  EXPECT_EQ(parse_env_u64("1000000"), 1000000u);
  EXPECT_EQ(parse_env_u64("18446744073709551615"), UINT64_MAX);
}

TEST(EnvParse, RejectsEverythingElse) {
  for (const char* bad : {"", " 7", "7 ", "+7", "-7", "7x", "x7", "0x10", "3.5", "1e6",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_EQ(parse_env_u64(bad), std::nullopt) << "input '" << bad << "'";
  }
}

// Saves and restores one variable so the suite never leaks state.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* current = std::getenv(name);
    if (current != nullptr) saved_ = current;
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  void set(const char* value) { setenv(name_, value, 1); }
  void unset() { unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(EnvParse, RequiredValidThrowsOnMalformedOnly) {
  EnvVarGuard guard("BCCLB_TEST_ENV_VAR");
  guard.unset();
  EXPECT_EQ(env_u64_required_valid("BCCLB_TEST_ENV_VAR"), std::nullopt);
  guard.set("123");
  EXPECT_EQ(env_u64_required_valid("BCCLB_TEST_ENV_VAR"), 123u);
  guard.set("12x");
  EXPECT_THROW(env_u64_required_valid("BCCLB_TEST_ENV_VAR"), BcclbError);
  guard.set(" 12");
  EXPECT_THROW(env_u64_required_valid("BCCLB_TEST_ENV_VAR"), BcclbError);
}

TEST(EnvParse, LenientLookupNeverThrows) {
  EnvVarGuard guard("BCCLB_TEST_ENV_VAR");
  guard.set("nonsense");
  EXPECT_EQ(env_u64("BCCLB_TEST_ENV_VAR"), std::nullopt);
  guard.set("31");
  EXPECT_EQ(env_u64("BCCLB_TEST_ENV_VAR"), 31u);
}

// ---- cache-blocked bitset reductions (common/bitset_reduce.h) ---------------

TEST(BitsetReduce, PopcountMatchesSerialAtEveryWidth) {
  Rng rng(99);
  std::vector<std::uint64_t> words(3 * kReduceBlockWords + 17);
  for (auto& w : words) w = rng.next_u64();
  std::uint64_t expected = 0;
  for (const std::uint64_t w : words) expected += static_cast<std::uint64_t>(std::popcount(w));
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(popcount_words(words, threads), expected) << threads << " threads";
  }
}

TEST(BitsetReduce, AllBitsSetHandlesTails) {
  for (const std::size_t num_bits : {1u, 63u, 64u, 65u, 128u, 1000u}) {
    std::vector<std::uint64_t> words((num_bits + 63) / 64, ~0ULL);
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_TRUE(all_bits_set(words, num_bits, threads)) << num_bits;
    }
    // Clearing the last relevant bit must flip the answer, even when the
    // word's irrelevant tail bits stay set.
    words[(num_bits - 1) / 64] &= ~(1ULL << ((num_bits - 1) % 64));
    for (const unsigned threads : {1u, 4u}) {
      EXPECT_FALSE(all_bits_set(words, num_bits, threads)) << num_bits;
    }
  }
}

TEST(BitsetReduce, MinMaxAndWidthSumsAreThreadInvariant) {
  Rng rng(7);
  std::vector<std::uint64_t> values(2 * kReduceBlockWords + 5);
  std::vector<std::uint8_t> widths(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = rng.next_u64();
    widths[i] = static_cast<std::uint8_t>(rng.next_u64() % 65);
  }
  const MinMaxU64 serial_mm = min_max_values(values, 1);
  const std::uint64_t serial_sum = sum_widths(widths, 1);
  EXPECT_EQ(serial_mm.min, *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(serial_mm.max, *std::max_element(values.begin(), values.end()));
  for (const unsigned threads : {2u, 8u}) {
    const MinMaxU64 mm = min_max_values(values, threads);
    EXPECT_EQ(mm.min, serial_mm.min);
    EXPECT_EQ(mm.max, serial_mm.max);
    EXPECT_EQ(sum_widths(widths, threads), serial_sum);
  }
}

}  // namespace
}  // namespace bcclb
