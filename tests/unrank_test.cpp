// Unranking (partition/unrank.h): exact inverse of partition_index, slice
// streaming vs all_partitions, typed range guards.

#include "partition/unrank.h"

#include <gtest/gtest.h>

#include <random>

#include "common/errors.h"
#include "partition/bell.h"
#include "partition/enumeration.h"
#include "partition/join_matrix.h"

namespace bcclb {
namespace {

SetPartition unrank_partition(std::size_t n, std::uint64_t index) {
  std::vector<std::uint32_t> rgs;
  unrank_rgs(n, index, rgs);
  return SetPartition(std::move(rgs));
}

TEST(Unrank, MatchesEnumerationOrderExhaustively) {
  for (std::size_t n = 1; n <= 8; ++n) {
    const std::vector<SetPartition> all = all_partitions(n);
    ASSERT_EQ(all.size(), bell_number_u64(n));
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(unrank_partition(n, i).rgs(), all[i].rgs()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Unrank, RoundTripsWithPartitionIndexFuzz) {
  // Seeded random indices i < B_n for every n up to 11: unranking then
  // ranking must reproduce i exactly (the satellite fuzz contract).
  std::mt19937_64 rng(20190729);
  for (std::size_t n = 1; n <= 11; ++n) {
    const std::uint64_t bell = checked_bell_u64(n);
    std::uniform_int_distribution<std::uint64_t> dist(0, bell - 1);
    for (int trial = 0; trial < 500; ++trial) {
      const std::uint64_t i = dist(rng);
      const SetPartition p = unrank_partition(n, i);
      EXPECT_EQ(partition_index(p), i) << "n=" << n << " i=" << i;
    }
    // Boundaries are the likeliest off-by-one sites.
    EXPECT_EQ(partition_index(unrank_partition(n, 0)), 0u);
    EXPECT_EQ(partition_index(unrank_partition(n, bell - 1)), bell - 1);
  }
}

TEST(Unrank, RoundTripsFromPartitionSide) {
  for (std::size_t n : {1, 4, 7}) {
    for (const SetPartition& p : all_partitions(n)) {
      EXPECT_EQ(unrank_partition(n, partition_index(p)).rgs(), p.rgs());
    }
  }
}

TEST(Unrank, LargeNStaysExact) {
  // n = 25 is the u64 ceiling; the extremes must still invert exactly.
  const std::uint64_t bell = checked_bell_u64(25);
  EXPECT_EQ(bell, bell_number_u64(25));
  for (const std::uint64_t i :
       {std::uint64_t{0}, std::uint64_t{1}, bell / 3, bell / 2, bell - 2, bell - 1}) {
    EXPECT_EQ(partition_index(unrank_partition(25, i)), i);
  }
}

TEST(Unrank, TypedRangeErrors) {
  std::vector<std::uint32_t> rgs;
  EXPECT_THROW(unrank_rgs(0, 0, rgs), RangeViolationError);
  EXPECT_THROW(unrank_rgs(26, 0, rgs), RangeViolationError);
  EXPECT_THROW(unrank_partition(3, 5), RangeViolationError);  // B_3 = 5
  EXPECT_THROW(checked_bell_u64(0), RangeViolationError);
  EXPECT_THROW(checked_bell_u64(26), RangeViolationError);
  EXPECT_THROW(rgs_extension_count(25, 1), RangeViolationError);
  EXPECT_EQ(rgs_extension_count(24, 0), bell_number_u64(25));
}

TEST(PartitionSlice, FullRangeReproducesAllPartitions) {
  for (std::size_t n = 1; n <= 8; ++n) {
    const std::vector<SetPartition> all = all_partitions(n);
    PartitionSlice slice(n, 0, checked_bell_u64(n));
    std::size_t i = 0;
    while (slice.next()) {
      ASSERT_LT(i, all.size());
      EXPECT_EQ(slice.rgs(), all[i].rgs()) << "n=" << n << " i=" << i;
      EXPECT_EQ(slice.index(), i);
      ++i;
    }
    EXPECT_EQ(i, all.size());
    EXPECT_FALSE(slice.next());
  }
}

TEST(PartitionSlice, ConcatenatedSlicesCoverTheWholeOrder) {
  const std::size_t n = 7;
  const std::uint64_t bell = checked_bell_u64(n);  // 877
  const std::vector<SetPartition> all = all_partitions(n);
  for (const std::uint64_t tile : {std::uint64_t{1}, std::uint64_t{64}, std::uint64_t{500}}) {
    std::size_t i = 0;
    for (std::uint64_t lo = 0; lo < bell; lo += tile) {
      PartitionSlice slice(n, lo, std::min(bell, lo + tile));
      while (slice.next()) {
        ASSERT_LT(i, all.size());
        EXPECT_EQ(slice.rgs(), all[i].rgs());
        ++i;
      }
    }
    EXPECT_EQ(i, all.size());
  }
}

TEST(PartitionSlice, MidRangeSliceNeedsNoPredecessors) {
  const std::size_t n = 10;  // B_10 = 115975: far past what a test would enumerate
  const std::uint64_t lo = 100000;
  PartitionSlice slice(n, lo, lo + 3);
  EXPECT_EQ(slice.remaining(), 3u);
  std::size_t count = 0;
  while (slice.next()) {
    EXPECT_EQ(partition_index(SetPartition(slice.rgs())), lo + count);
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(PartitionSlice, EmptyAndInvalidRanges) {
  PartitionSlice empty(5, 10, 10);
  EXPECT_FALSE(empty.next());
  EXPECT_THROW(PartitionSlice(5, 3, 2), RangeViolationError);
  EXPECT_THROW(PartitionSlice(5, 0, bell_number_u64(5) + 1), RangeViolationError);
  EXPECT_THROW(PartitionSlice(0, 0, 0), RangeViolationError);
}

TEST(Guards, AllPartitionsRefusesOversizedN) {
  try {
    all_partitions(13);
    FAIL() << "expected RangeViolationError";
  } catch (const RangeViolationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("B_13"), std::string::npos) << what;
    EXPECT_NE(what.find("PartitionSlice"), std::string::npos) << what;
  }
}

TEST(Guards, DenseJoinMatrixRefusesOversizedN) {
  try {
    partition_join_matrix(9);
    FAIL() << "expected RangeViolationError";
  } catch (const RangeViolationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("M_9"), std::string::npos) << what;
    EXPECT_NE(what.find("GiB"), std::string::npos) << what;
    EXPECT_NE(what.find("tiled_partition_rank"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bcclb
