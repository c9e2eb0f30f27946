// Out-of-core tiled rank (linalg/tiled_rank.h): tile generation vs the dense
// join matrix and the lattice join, pinned tile digests, tiled and packed rank vs the Stirling-sum prediction and the
// schoolbook eliminations, thread/tiling
// invariance, checkpointed kill-free resume identity, corruption detection,
// and memory-budget behaviour.

#include "linalg/tiled_rank.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "partition/bell.h"
#include "partition/enumeration.h"
#include "partition/join_matrix.h"
#include "partition/unrank.h"
#include "schoolbook_rank.h"

namespace bcclb {
namespace {

std::string test_dir(const std::string& suffix = "") {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "bcclb_rank_" + info->test_suite_name() + "_" +
                    info->name() + suffix;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TiledRankConfig base_config(std::size_t n, RankField field, std::size_t tile_rows) {
  TiledRankConfig cfg;
  cfg.n = n;
  cfg.field = field;
  cfg.tile_rows = tile_rows;
  cfg.threads = 1;
  return cfg;
}

TEST(JoinTile, MatchesDenseJoinMatrix) {
  for (std::size_t n = 1; n <= 7; ++n) {
    const BoolMatrix dense = partition_join_matrix(n);
    const std::size_t bell = dense.rows;
    // A few representative windows, including ragged boundaries.
    const std::size_t windows[][2] = {{0, bell}, {0, 1}, {bell / 3, bell / 2 + 1}, {bell - 1, bell}};
    for (const auto& w : windows) {
      const JoinTile tile = generate_join_tile(n, w[0], w[1], 1);
      ASSERT_EQ(tile.rows, w[1] - w[0]);
      ASSERT_EQ(tile.cols, bell);
      for (std::size_t r = 0; r < tile.rows; ++r) {
        for (std::size_t c = 0; c < bell; ++c) {
          ASSERT_EQ(tile.get(r, c), dense.at(w[0] + r, c) != 0)
              << "n=" << n << " row " << w[0] + r << " col " << c;
        }
      }
    }
  }
}

// M_8 windows against the lattice join itself, without the dense M_8: the
// one-block row (all ones), the n-singletons row, and slices across the
// order (word boundaries, mid-matrix, the last tile of 32).
TEST(JoinTile, M8WindowsMatchLatticeJoin) {
  const std::size_t n = 8;
  const std::vector<SetPartition> cols = all_partitions(n);
  const std::size_t bell = cols.size();
  const std::size_t windows[][2] = {
      {0, 1}, {bell - 1, bell}, {63, 65}, {2047, 2113}, {4108, 4140}};
  for (const auto& w : windows) {
    const JoinTile tile = generate_join_tile(n, w[0], w[1], 2);
    ASSERT_EQ(tile.cols, bell);
    for (std::size_t r = 0; r < tile.rows; ++r) {
      const SetPartition row = unrank_partition(n, w[0] + r);
      for (std::size_t c = 0; c < bell; ++c) {
        ASSERT_EQ(tile.get(r, c), row.join(cols[c]).is_coarsest())
            << "row " << w[0] + r << " col " << c;
      }
    }
  }
  EXPECT_EQ(generate_join_tile(n, 0, 1).ones, bell);           // ⊤ joins everything
  EXPECT_EQ(generate_join_tile(n, bell - 1, bell).ones, 1u);   // only ⊤ joins ⊥ to ⊤
}

// Tile digests pinned at their measured values: any change to the kernel
// that moves one bit of M_8 or M_9 breaks the certificate chain, and this
// names the tile.
TEST(JoinTile, PinnedDigests) {
  struct Pin {
    std::size_t n, lo, hi;
    std::uint64_t ones, digest;
  };
  const Pin pins[] = {
      {8, 0, 32, 99451, 0x68b4266888e4a5f7ULL},
      {8, 2047, 2113, 122407, 0x17472d4b9f391f8aULL},
      {8, 4108, 4140, 8893, 0x00d55215fad7fdc5ULL},
      {9, 20635, 21147, 1728770, 0x26fd952e7b94767aULL},
  };
  for (const Pin& pin : pins) {
    const JoinTile tile = generate_join_tile(pin.n, pin.lo, pin.hi, 2);
    EXPECT_EQ(tile.ones, pin.ones) << "M_" << pin.n << " rows [" << pin.lo << ", " << pin.hi << ")";
    EXPECT_EQ(tile.digest, pin.digest)
        << "M_" << pin.n << " rows [" << pin.lo << ", " << pin.hi << ")";
  }
}

TEST(JoinTile, ThreadCountDoesNotChangeBits) {
  const JoinTile one = generate_join_tile(7, 100, 612, 1);
  for (unsigned threads : {2u, 3u, 8u}) {
    const JoinTile t = generate_join_tile(7, 100, 612, threads);
    EXPECT_EQ(t.bits, one.bits);
    EXPECT_EQ(t.digest, one.digest);
    EXPECT_EQ(t.ones, one.ones);
  }
}

TEST(JoinTile, RangeGuards) {
  EXPECT_THROW(generate_join_tile(0, 0, 0), RangeViolationError);
  EXPECT_THROW(generate_join_tile(26, 0, 1), RangeViolationError);
  EXPECT_THROW(generate_join_tile(5, 3, 2), RangeViolationError);
  EXPECT_THROW(generate_join_tile(5, 0, bell_number_u64(5) + 1), RangeViolationError);
}

TEST(JoinTileRank, MatchesDenseRankOfTheSameRows) {
  const BoolMatrix dense = partition_join_matrix(6);
  const JoinTile tile = generate_join_tile(6, 50, 150, 1);
  BoolMatrix sub;
  sub.rows = tile.rows;
  sub.cols = tile.cols;
  sub.data.assign(sub.rows * sub.cols, 0);
  for (std::size_t r = 0; r < sub.rows; ++r) {
    for (std::size_t c = 0; c < sub.cols; ++c) sub.at(r, c) = dense.at(50 + r, c);
  }
  EXPECT_EQ(join_tile_rank(tile, RankField::kGf2, 0), schoolbook_gf2_rank(sub));
  EXPECT_EQ(join_tile_rank(tile, RankField::kModp, kPrime30A),
            schoolbook_modp_rank(sub, kPrime30A));
}

TEST(TiledRank, Gf2MatchesStirlingPredictionUpToM8) {
  // GF(2) rank of M_n is 2^{n-1} (rank-deficient — why the certificate rests
  // on mod p).
  for (std::size_t n = 1; n <= 8; ++n) {
    const TiledRankReport report = tiled_partition_rank(base_config(n, RankField::kGf2, 97));
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.rank, predicted_join_rank(n, 2)) << "n=" << n;
    EXPECT_EQ(report.rank, std::size_t{1} << (n - 1)) << "n=" << n;
    EXPECT_EQ(report.dimension, bell_number_u64(n));
  }
}

TEST(TiledRank, ModpMatchesStirlingPredictionUpToM7) {
  for (std::size_t n = 1; n <= 7; ++n) {
    const TiledRankReport report = tiled_partition_rank(base_config(n, RankField::kModp, 128));
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.rank, predicted_join_rank(n, kPrime30A)) << "n=" << n;
    // Theorem 2.3: M_n is full rank over Q, and these primes do not divide
    // the determinantal divisors.
    EXPECT_TRUE(report.full_rank) << "n=" << n;
    EXPECT_EQ(report.rank, bell_number_u64(n));
  }
}

// The rank of M_n over GF(p) is sum_{k <= min(p, n)} S(n, k) (partition/
// bell.h). Small primes make every field lose rank somewhere, so this pins
// each pivot of both kernels, out of core and in memory.
TEST(TiledRank, EveryFieldMatchesStirlingPrediction) {
  for (std::size_t n = 1; n <= 7; ++n) {
    const JoinTile whole = generate_join_tile(n, 0, bell_number_u64(n), 1);
    for (std::uint64_t p : {2u, 3u, 5u, 7u, 11u}) {
      const std::size_t predicted = predicted_join_rank(n, p);
      std::vector<RankField> fields = {RankField::kModp};
      if (p == 2) fields.push_back(RankField::kGf2);
      for (RankField field : fields) {
        TiledRankConfig cfg = base_config(n, field, 97);
        cfg.prime = p;
        EXPECT_EQ(tiled_partition_rank(cfg).rank, predicted)
            << "tiled n=" << n << " p=" << p << " " << rank_field_name(field);
        EXPECT_EQ(packed_rank(whole.rows, whole.cols, whole.words_per_row, whole.bits.data(),
                              field, p),
                  predicted)
            << "packed n=" << n << " p=" << p << " " << rank_field_name(field);
      }
    }
  }
  // M_7: 64, 365, 855, 877, 877.
  const std::size_t m7[] = {64, 365, 855, 877, 877};
  const std::uint64_t primes[] = {2, 3, 5, 7, 11};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(predicted_join_rank(7, primes[i]), m7[i]);
}

TEST(TiledRank, BothPrimesAgree) {
  TiledRankConfig cfg = base_config(6, RankField::kModp, 50);
  cfg.prime = kPrime30A;
  const TiledRankReport a = tiled_partition_rank(cfg);
  cfg.prime = kPrime30B;
  const TiledRankReport b = tiled_partition_rank(cfg);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.rank, bell_number_u64(6));
  // The chain hashes the prime via the header, so certificates differ.
  EXPECT_NE(a.certificate_digest, b.certificate_digest);
}

TEST(TiledRank, ThreadCountDoesNotChangeCertificate) {
  TiledRankConfig cfg = base_config(7, RankField::kModp, 100);
  cfg.threads = 1;
  const TiledRankReport one = tiled_partition_rank(cfg);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const TiledRankReport t = tiled_partition_rank(cfg);
    EXPECT_EQ(t.rank, one.rank);
    EXPECT_EQ(t.certificate_digest, one.certificate_digest);
  }
  EXPECT_TRUE(one.full_rank);
}

// Certificates computed before the chunk-skipping elimination landed; any
// change to tiling, skipping, batching or threading must reproduce them.
TEST(TiledRank, PinnedCertificates) {
  struct Pin {
    std::size_t n;
    RankField field;
    std::size_t tile_rows;
    const char* certificate;
  };
  const Pin pins[] = {
      {8, RankField::kModp, 32, "e6b8d08274a74e8c"},
      {8, RankField::kGf2, 32, "d59cc3adb0aeed48"},
      {7, RankField::kModp, 64, "570c1d66a6d310c3"},
      {7, RankField::kGf2, 64, "e7ccd4bb303ddf0d"},
  };
  for (const Pin& pin : pins) {
    TiledRankConfig cfg = base_config(pin.n, pin.field, pin.tile_rows);
    cfg.threads = 0;
    const TiledRankReport report = tiled_partition_rank(cfg);
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.certificate_digest, pin.certificate)
        << "n=" << pin.n << " field=" << rank_field_name(pin.field);
  }

  TiledRankConfig cfg = base_config(7, RankField::kModp, 64);
  for (unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    EXPECT_EQ(tiled_partition_rank(cfg).certificate_digest, "570c1d66a6d310c3")
        << "threads=" << threads;
  }
  // 600000 bytes leaves room for 40-row chunks: each 64-row segment streams
  // as two chunks, so the skip check runs per sub-segment chunk.
  cfg.threads = 2;
  cfg.mem_budget_bytes = 600000;
  EXPECT_EQ(tiled_partition_rank(cfg).certificate_digest, "570c1d66a6d310c3");
}

TEST(TiledRank, SkipsChunksNoTileRowTouches) {
  // M_7 is full rank mod p, so each of the 14 tiles of 64 rows leaves a
  // non-empty segment, and tile t visits one chunk per earlier segment.
  TiledRankConfig cfg = base_config(7, RankField::kModp, 64);
  const TiledRankReport whole = tiled_partition_rank(cfg);
  ASSERT_EQ(whole.tiles_total, 14u);
  EXPECT_GT(whole.segments_skipped, 0u);
  EXPECT_EQ(whole.segments_read + whole.segments_skipped, 14u * 13u / 2u);

  // 40-row chunks split every 64-row segment in two.
  cfg.mem_budget_bytes = 600000;
  const TiledRankReport split = tiled_partition_rank(cfg);
  EXPECT_GT(split.segments_skipped, 0u);
  EXPECT_EQ(split.segments_read + split.segments_skipped, 2u * 14u * 13u / 2u);
}

TEST(TiledRank, PeakResidentCountsOneSegmentOfChunk) {
  // With a directory the pivots live on disk; resident memory is the packed
  // tile bits, the u32 working tile, the staging buffer for new pivots, and
  // a chunk that never exceeds one segment (<= tile_rows rows).
  TiledRankConfig cfg = base_config(7, RankField::kModp, 64);
  cfg.dir = test_dir();
  const TiledRankReport report = tiled_partition_rank(cfg);
  const std::size_t dimension = bell_number_u64(7);
  const std::size_t tile_bits = cfg.tile_rows * ((dimension + 63) / 64) * sizeof(std::uint64_t);
  const std::size_t rows_bytes = cfg.tile_rows * dimension * sizeof(std::uint32_t);
  EXPECT_TRUE(report.full_rank);
  EXPECT_LE(report.peak_resident_bytes, tile_bits + 3 * rows_bytes);
}

TEST(TiledRank, TileShapeDoesNotChangeRank) {
  std::size_t expect = bell_number_u64(6);  // 203
  for (const std::size_t tile_rows : {1ul, 7ul, 64ul, 203ul, 512ul}) {
    const TiledRankReport report =
        tiled_partition_rank(base_config(6, RankField::kModp, tile_rows));
    EXPECT_EQ(report.rank, expect) << "tile_rows=" << tile_rows;
    EXPECT_EQ(report.tiles_total, (203 + tile_rows - 1) / tile_rows);
  }
}

TEST(TiledRank, CheckpointedRunResumesBitIdentical) {
  const std::string dir_a = test_dir("_a");
  const std::string dir_b = test_dir("_b");

  TiledRankConfig cfg = base_config(7, RankField::kModp, 100);  // 9 tiles
  cfg.dir = dir_a;
  const TiledRankReport uninterrupted = tiled_partition_rank(cfg);
  EXPECT_TRUE(uninterrupted.complete);
  EXPECT_TRUE(uninterrupted.full_rank);

  // Same campaign in dir_b, stopped after 2 tiles, then resumed to the end.
  cfg.dir = dir_b;
  cfg.stop_after_tiles = 2;
  const TiledRankReport stopped = tiled_partition_rank(cfg);
  EXPECT_FALSE(stopped.complete);
  EXPECT_EQ(stopped.tiles_run, 2u);

  cfg.stop_after_tiles = 0;
  cfg.resume = true;
  const TiledRankReport resumed = tiled_partition_rank(cfg);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.tiles_resumed, 2u);
  EXPECT_EQ(resumed.tiles_run, uninterrupted.tiles_total - 2);
  EXPECT_EQ(resumed.rank, uninterrupted.rank);
  EXPECT_EQ(resumed.certificate_digest, uninterrupted.certificate_digest);

  // Resuming a finished run is a no-op that reports the same certificate.
  const TiledRankReport again = tiled_partition_rank(cfg);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.tiles_run, 0u);
  EXPECT_EQ(again.rank, uninterrupted.rank);
  EXPECT_EQ(again.certificate_digest, uninterrupted.certificate_digest);
}

// modp_inverse is a Fermat inverse, wrong for a composite modulus, so a run
// with one is refused before any tile is eliminated. GF(2) ignores it.
TEST(TiledRank, RefusesCompositeModulus) {
  TiledRankConfig cfg = base_config(5, RankField::kModp, 13);
  // 32749 is the largest prime below 2^15, so its square needs the full
  // trial division up to sqrt(2^30).
  const std::uint64_t composites[] = {0, 1, 4, 9, 1001, 32749ULL * 32749ULL};
  for (std::uint64_t m : composites) {
    cfg.prime = m;
    EXPECT_THROW(tiled_partition_rank(cfg), RangeViolationError) << "modulus " << m;
  }
  const std::uint64_t primes[] = {2, 7, 32749, kPrime30A, kPrime30B};
  for (std::uint64_t p : primes) {
    cfg.prime = p;
    EXPECT_EQ(tiled_partition_rank(cfg).rank, predicted_join_rank(5, p)) << "prime " << p;
  }
  cfg.field = RankField::kGf2;
  cfg.prime = 4;
  EXPECT_EQ(tiled_partition_rank(cfg).rank, predicted_join_rank(5, 2));
}

TEST(TiledRank, RefusesToClobberAndRequiresCheckpointForResume) {
  const std::string dir = test_dir();
  TiledRankConfig cfg = base_config(5, RankField::kGf2, 13);
  cfg.dir = dir;
  cfg.resume = true;
  EXPECT_THROW(tiled_partition_rank(cfg), CheckpointError);  // nothing to resume
  cfg.resume = false;
  tiled_partition_rank(cfg);
  EXPECT_THROW(tiled_partition_rank(cfg), CheckpointError);  // refuses clobber
  cfg.resume = false;
  cfg.dir.clear();
  cfg.resume = true;
  EXPECT_THROW(tiled_partition_rank(cfg), CheckpointError);  // resume needs a dir
}

TEST(TiledRank, CorruptSegmentIsDetectedOnResume) {
  const std::string dir = test_dir();
  TiledRankConfig cfg = base_config(6, RankField::kModp, 50);
  cfg.dir = dir;
  cfg.stop_after_tiles = 2;
  tiled_partition_rank(cfg);

  // Flip one byte in the first segment; the recorded digest must catch it.
  const std::string seg = rank_segment_path(dir, 0);
  std::string bytes;
  {
    std::ifstream in(seg, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(seg, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  cfg.stop_after_tiles = 0;
  cfg.resume = true;
  EXPECT_THROW(tiled_partition_rank(cfg), CheckpointError);
}

// Replaces the first `from` in `body` with `to`.
std::string replace_first(std::string body, const std::string& from, const std::string& to) {
  const std::size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) body.replace(at, from.size(), to);
  return body;
}

// Replaces the value that follows the first `key` in `body`.
std::string with_value(std::string body, const std::string& key, const std::string& value) {
  const std::size_t at = body.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return body;
  const std::size_t start = at + key.size();
  body.replace(start, body.find_first_of(" \n", start) - start, value);
  return body;
}

TEST(TiledRank, TamperedCheckpointIsDetected) {
  const std::string dir = test_dir();
  TiledRankConfig cfg = base_config(5, RankField::kGf2, 13);
  cfg.dir = dir;
  cfg.stop_after_tiles = 2;
  const TiledRankReport stopped = tiled_partition_rank(cfg);
  const std::string path = rank_checkpoint_path(dir);
  const std::string clean = read_snapshot(path);
  std::string snapshot;
  {
    std::ifstream in(path, std::ios::binary);
    snapshot.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // Hand-edit the claimed rank; the FNV trailer no longer matches.
  const std::size_t pos = snapshot.find("\nrank ");
  ASSERT_NE(pos, std::string::npos);
  snapshot[pos + 6] = snapshot[pos + 6] == '9' ? '8' : '9';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(snapshot.data(), static_cast<std::streamsize>(snapshot.size()));
  }
  cfg.resume = true;
  cfg.stop_after_tiles = 0;
  EXPECT_THROW(tiled_partition_rank(cfg), CheckpointError);

  // Edits rewritten with a valid trailer: the record grammar and the
  // re-derived chain must refuse each one.
  const std::pair<const char*, std::string> rewrites[] = {
      {"signed ones", with_value(clean, " ones ", "-447")},
      {"signed tiles-done", with_value(clean, "\ntiles-done ", "+2")},
      {"tab and spaces after rank", replace_first(clean, "\nrank ", "\nrank\t  ")},
      {"tile record split over two lines", replace_first(clean, " bits ", "\nbits ")},
      {"trailing non-record line", clean + "not a record\n"},
      {"tile edit under the old chain", replace_first(clean, " ones ", " ones 1")},
  };
  for (const auto& [what, body] : rewrites) {
    write_snapshot_atomic(path, body);
    EXPECT_THROW(tiled_partition_rank(cfg), CheckpointError) << what;
  }
  // The clean body, rewritten the same way, still resumes to the end.
  write_snapshot_atomic(path, clean);
  const TiledRankReport resumed = tiled_partition_rank(cfg);
  EXPECT_EQ(resumed.tiles_resumed, stopped.tiles_run);
  EXPECT_TRUE(resumed.complete);
}

TEST(TiledRank, ResumeRejectsMismatchedConfiguration) {
  const std::string dir = test_dir();
  TiledRankConfig cfg = base_config(6, RankField::kModp, 50);
  cfg.dir = dir;
  cfg.stop_after_tiles = 1;
  tiled_partition_rank(cfg);
  cfg.resume = true;
  cfg.stop_after_tiles = 0;
  TiledRankConfig other = cfg;
  other.tile_rows = 64;
  EXPECT_THROW(tiled_partition_rank(other), CheckpointError);
  other = cfg;
  other.prime = kPrime30B;
  EXPECT_THROW(tiled_partition_rank(other), CheckpointError);
  other = cfg;
  other.field = RankField::kGf2;
  EXPECT_THROW(tiled_partition_rank(other), CheckpointError);
}

TEST(TiledRank, MemoryBudgetShrinksChunksNotResults) {
  const std::string dir = test_dir();
  TiledRankConfig cfg = base_config(7, RankField::kModp, 64);
  const TiledRankReport unlimited = tiled_partition_rank(cfg);

  // Tight budget: one 64-row mod-p tile of M_7 needs ~64 * 877 * 4 bytes
  // working + staging + bits; 2 MiB forces the smallest chunk sizes.
  cfg.dir = dir;
  cfg.mem_budget_bytes = 2ULL << 20;
  const TiledRankReport tight = tiled_partition_rank(cfg);
  EXPECT_EQ(tight.rank, unlimited.rank);
  EXPECT_TRUE(tight.full_rank);
  EXPECT_LE(tight.peak_resident_bytes, cfg.mem_budget_bytes);

  // A budget no tile can fit is a typed refusal naming budget and footprint.
  TiledRankConfig starved = base_config(7, RankField::kModp, 64);
  starved.mem_budget_bytes = 64 << 10;
  try {
    tiled_partition_rank(starved);
    FAIL() << "expected ResourceBudgetError";
  } catch (const ResourceBudgetError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos) << what;
    EXPECT_NE(what.find("tile-rows"), std::string::npos) << what;
  }
}

TEST(TiledRank, InterruptFlagStopsBetweenTiles) {
  volatile std::sig_atomic_t flag = 0;
  TiledRankConfig cfg = base_config(6, RankField::kModp, 50);
  cfg.dir = test_dir();
  cfg.interrupt = &flag;
  std::size_t fired = 0;
  cfg.progress = [&](std::size_t done, std::size_t, std::size_t) {
    fired = done;
    flag = 1;  // raise after the first tile completes
  };
  const TiledRankReport report = tiled_partition_rank(cfg);
  EXPECT_EQ(fired, 1u);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.tiles_run, 1u);

  // The interrupt left a valid checkpoint: resume finishes the job with the
  // canonical certificate.
  cfg.interrupt = nullptr;
  cfg.progress = nullptr;
  cfg.resume = true;
  const TiledRankReport resumed = tiled_partition_rank(cfg);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.rank, bell_number_u64(6));
  const TiledRankReport clean = tiled_partition_rank(base_config(6, RankField::kModp, 50));
  EXPECT_EQ(resumed.rank, clean.rank);
}

TEST(TiledRank, FieldNamesRoundTrip) {
  EXPECT_STREQ(rank_field_name(RankField::kGf2), "gf2");
  EXPECT_STREQ(rank_field_name(RankField::kModp), "modp");
  EXPECT_EQ(parse_rank_field("gf2"), RankField::kGf2);
  EXPECT_EQ(parse_rank_field("modp"), RankField::kModp);
  EXPECT_EQ(parse_rank_field("gf3"), std::nullopt);
}

}  // namespace
}  // namespace bcclb
