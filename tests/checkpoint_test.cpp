// Checksummed atomic snapshots (bcc/checkpoint.h): integrity must be
// all-or-nothing. A snapshot either reads back byte-identical or the read
// throws a typed CheckpointError — truncation, bit rot, and hand edits are
// never silently accepted, because the campaign layer resumes from whatever
// this layer hands it. The line-record grammar the persisted formats share is
// pinned here too, and each format is fuzzed with seeded, re-checksummed
// mutants.
#include "bcc/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <random>

#include <gtest/gtest.h>

#include "common/errors.h"
#include "core/campaign.h"
#include "linalg/tiled_rank.h"
#include "serve/disk_store.h"

namespace bcclb {
namespace {

std::string test_dir() {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "bcclb_ckpt_" + info->test_suite_name() + "_" +
                    info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string raw_read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void raw_write(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Fnv1a, MatchesReferenceValues) {
  // FNV-1a offset basis for the empty string, and a classic test vector.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a("bcclb"), fnv1a("bcclB"));
}

TEST(DigestHex, RoundTripsAndRejectsGarbage) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeef}, UINT64_MAX}) {
    const std::string hex = digest_hex(value);
    EXPECT_EQ(hex.size(), 16u);
    std::uint64_t parsed = 0;
    ASSERT_TRUE(parse_digest_hex(hex, parsed)) << hex;
    EXPECT_EQ(parsed, value);
  }
  std::uint64_t parsed = 0;
  EXPECT_FALSE(parse_digest_hex("", parsed));
  EXPECT_FALSE(parse_digest_hex("0123456789abcde", parsed));    // 15 chars
  EXPECT_FALSE(parse_digest_hex("0123456789abcdef0", parsed));  // 17 chars
  EXPECT_FALSE(parse_digest_hex("0123456789abcdeg", parsed));   // non-hex
  EXPECT_FALSE(parse_digest_hex("0123456789ABCDEF", parsed));   // upper case
}

TEST(Snapshot, RoundTripsBodyAndLeavesNoTempFile) {
  const std::string dir = test_dir();
  const std::string path = dir + "/snap";
  const std::string body = "line one\nline two\n";
  write_snapshot_atomic(path, body);
  EXPECT_EQ(read_snapshot(path), body);
  EXPECT_FALSE(file_exists(path + ".tmp"));

  // The on-disk form is the body plus exactly one checksum trailer line.
  const std::string raw = raw_read(path);
  EXPECT_EQ(raw.substr(0, body.size()), body);
  EXPECT_EQ(raw.substr(body.size(), 9), "checksum ");
}

TEST(Snapshot, AppendsMissingFinalNewline) {
  const std::string dir = test_dir();
  const std::string path = dir + "/snap";
  write_snapshot_atomic(path, "no trailing newline");
  EXPECT_EQ(read_snapshot(path), "no trailing newline\n");
}

TEST(Snapshot, OverwriteIsAtomicReplacement) {
  const std::string dir = test_dir();
  const std::string path = dir + "/snap";
  write_snapshot_atomic(path, "version one\n");
  write_snapshot_atomic(path, "version two\n");
  EXPECT_EQ(read_snapshot(path), "version two\n");
}

TEST(Snapshot, MissingFileThrowsCheckpointError) {
  const std::string dir = test_dir();
  EXPECT_THROW(read_snapshot(dir + "/nope"), CheckpointError);
}

TEST(Snapshot, TruncationIsDetected) {
  const std::string dir = test_dir();
  const std::string path = dir + "/snap";
  write_snapshot_atomic(path, "a body that will be cut short\nwith two lines\n");
  const std::string raw = raw_read(path);
  // Chop at every interesting boundary: mid-body, mid-trailer, empty.
  for (const std::size_t keep : {raw.size() - 1, raw.size() - 10, raw.size() / 2,
                                 std::size_t{3}, std::size_t{0}}) {
    raw_write(path, raw.substr(0, keep));
    EXPECT_THROW(read_snapshot(path), CheckpointError) << "kept " << keep << " bytes";
  }
}

TEST(Snapshot, GarbageContentIsDetected) {
  const std::string dir = test_dir();
  const std::string path = dir + "/snap";
  raw_write(path, "total nonsense, no trailer\n");
  EXPECT_THROW(read_snapshot(path), CheckpointError);
  raw_write(path, "checksum zzzzzzzzzzzzzzzz\n");  // malformed digest
  EXPECT_THROW(read_snapshot(path), CheckpointError);
}

TEST(Snapshot, BitFlipFailsChecksumWithClearMessage) {
  const std::string dir = test_dir();
  const std::string path = dir + "/snap";
  write_snapshot_atomic(path, "precious campaign state\n");
  std::string raw = raw_read(path);
  raw[4] ^= 0x20;  // flip one bit inside the body
  raw_write(path, raw);
  try {
    read_snapshot(path);
    FAIL() << "corrupt snapshot was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"), std::string::npos) << e.what();
    EXPECT_STREQ(e.kind(), "CheckpointError");
  }
}

TEST(PlainFile, RoundTripsByteExact) {
  const std::string dir = test_dir();
  const std::string path = dir + "/artifact.txt";
  const std::string bytes = "exact bytes, no trailer\x01\x02\n";
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  EXPECT_EQ(raw_read(path), bytes);
  EXPECT_FALSE(file_exists(path + ".tmp"));
  EXPECT_THROW(read_file(dir + "/absent"), CheckpointError);
}

TEST(RecordReader, ReadsTheSharedGrammar) {
  const char text[] = "magic v1\nkey 00000000000000ff\nlen 007\npayload\0bytes";
  RecordReader in(std::string_view(text, sizeof(text) - 1), "ctx");
  in.expect_bytes("magic v1\n", "bad magic");
  const auto key = in.next({"key", ""});
  EXPECT_EQ(in.line(), "key 00000000000000ff");
  EXPECT_EQ(in.digest(key[1]), 0xffu);
  EXPECT_EQ(in.u64(in.next({"len", ""})[1]), 7u);  // leading zeros are accepted
  EXPECT_EQ(in.rest(), std::string_view("payload\0bytes", 13));
  EXPECT_THROW(in.expect_end(), CheckpointError);
}

TEST(RecordReader, RefusesPaddingSignsAndStrayBytes) {
  const auto refuses = [](const std::string& text) {
    try {
      RecordReader in(text, "ctx");
      in.u64(in.next({"n", ""})[1]);
      in.expect_end();
    } catch (const CheckpointError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("ctx: line ", 0), 0u) << e.what();
      return true;
    }
    return false;
  };
  EXPECT_FALSE(refuses("n 5\n"));
  for (const char* bad : {"n 5", "n  5\n", " n 5\n", "n 5 \n", "n\t5\n", "n -5\n", "n +5\n",
                          "n 5x\n", "n 18446744073709551616\n", "n 5\n\n", "n 5\nx\n", "m 5\n",
                          "n 5 6\n", "\n", ""}) {
    EXPECT_TRUE(refuses(bad)) << bad;
  }
  RecordReader in("d 0123456789ABCDEF\n", "ctx");
  EXPECT_THROW(in.digest(in.next({"d", ""})[1]), CheckpointError);
  RecordReader header("abc\ndef\n", "ctx");
  EXPECT_THROW(header.expect_bytes("abc\nxyz\n", "wrong header"), CheckpointError);
  header.expect_bytes("abc\n", "wrong header");
  header.next({"def"});
  EXPECT_EQ(header.line(), "def");
  header.expect_end();
}

// ---- seeded mutation fuzz -----------------------------------------------------
//
// Each persisted format is read from whatever bytes are on disk. A mutant of
// a valid body, re-checksummed as a consistent rewrite would be, may only load
// cleanly or be refused in that format's typed way; nothing else may escape.

constexpr int kMutantsPerFormat = 300;

// Flips a byte, inserts one of '-', '+', ' ', '\t', '\n', deletes a byte, or
// truncates.
std::string mutate(std::string body, std::mt19937_64& rng) {
  const std::size_t at = rng() % body.size();
  switch (rng() % 4) {
    case 0: body[at] = static_cast<char>(body[at] ^ static_cast<char>(1 + rng() % 255)); break;
    case 1: body.insert(at, 1, "-+ \t\n"[rng() % 5]); break;
    case 2: body.erase(at, 1); break;
    default: body.resize(at); break;
  }
  return body;
}

TEST(MutationFuzz, CampaignCheckpointResumesOrThrowsCheckpointError) {
  const std::string dir = test_dir();
  Campaign campaign;
  campaign.name = "fuzz";
  campaign.seed = 7;
  for (const char* name : {"alpha", "beta", "gamma"}) {
    campaign.jobs.push_back({name, 0, [name](const CampaignJobContext&) {
                               return CampaignJobResult{std::string(name) + " output\n", 0};
                             }});
  }
  CampaignConfig config;
  config.dir = dir;
  config.threads = 1;
  const CampaignReport clean_report = CampaignRunner(config).run(campaign);
  ASSERT_TRUE(clean_report.all_done());
  const std::string path = campaign_checkpoint_path(dir);
  const std::string clean = read_snapshot(path);

  config.resume = true;
  std::mt19937_64 rng(20190601);
  int refused = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::string mutant = mutate(clean, rng);
    write_snapshot_atomic(path, mutant);
    try {
      const CampaignReport report = CampaignRunner(config).run(campaign);
      ASSERT_TRUE(report.all_done()) << mutant;
      for (std::size_t j = 0; j < campaign.jobs.size(); ++j) {
        EXPECT_EQ(report.records[j].digest, clean_report.records[j].digest) << mutant;
      }
    } catch (const CheckpointError&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, kMutantsPerFormat / 2);
}

TEST(MutationFuzz, RankCheckpointResumesOrThrowsCheckpointError) {
  const std::string dir = test_dir();
  TiledRankConfig cfg;
  cfg.n = 4;
  cfg.field = RankField::kGf2;
  cfg.tile_rows = 5;  // B_4 = 15: three tiles
  cfg.threads = 1;
  cfg.dir = dir;
  const TiledRankReport clean_report = tiled_partition_rank(cfg);
  ASSERT_TRUE(clean_report.complete);
  const std::string path = rank_checkpoint_path(dir);
  const std::string clean = read_snapshot(path);

  cfg.resume = true;
  std::mt19937_64 rng(20190602);
  int refused = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::string mutant = mutate(clean, rng);
    write_snapshot_atomic(path, mutant);
    try {
      const TiledRankReport report = tiled_partition_rank(cfg);
      EXPECT_EQ(report.certificate_digest, clean_report.certificate_digest) << mutant;
    } catch (const CheckpointError&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, kMutantsPerFormat / 2);
}

TEST(MutationFuzz, DiskStoreEntryLoadsExactlyOrIsQuarantined) {
  const std::string dir = test_dir();
  DiskStore store(dir);
  const char raw[] = "key 0000000000000001\nlen 9\n\0raw bytes\n";  // header-like, with a NUL
  const std::string artifact(raw, sizeof(raw) - 1);
  store.insert(1, artifact);
  const std::string path = store.entry_path(1);
  const std::string clean = read_file(path);

  std::mt19937_64 rng(20190603);
  std::uint64_t quarantined = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::string mutant = mutate(clean, rng);
    write_file_atomic(path, mutant);
    const auto loaded = store.lookup(1);
    if (loaded) {
      EXPECT_EQ(*loaded, artifact) << mutant;
    } else {
      EXPECT_EQ(store.stats().quarantined, ++quarantined) << mutant;
    }
  }
  EXPECT_GT(quarantined, static_cast<std::uint64_t>(kMutantsPerFormat / 2));
}

TEST(MutationFuzz, GoldenStoreParsesOrThrowsCheckpointError) {
  GoldenStore store;
  store.campaign = "fuzz";
  store.seed = 2019;
  store.digests = {{"alpha", 0x0123456789abcdefULL}, {"beta", 42}};
  const std::string clean = store.to_json();

  std::mt19937_64 rng(20190604);
  int refused = 0;
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    try {
      GoldenStore::from_json(mutate(clean, rng));
    } catch (const CheckpointError&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace bcclb
