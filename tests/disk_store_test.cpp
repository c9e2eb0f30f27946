// Durable artifact tier (serve/disk_store.h) and the deterministic chaos
// layer (serve/chaos.h).
//
// The disk tests exercise the crash shapes the store is built to absorb:
// a SIGKILL mid-write (temp file visible, no entry), bit rot (quarantine,
// never serve), and a daemon restart (byte-identical verified reload). Each
// test gets its own mkdtemp directory so runs never interfere.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/chaos.h"
#include "serve/disk_store.h"

namespace bcclb {
namespace {

// Fresh store directory per test, removed (best-effort) on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/bcclb_disk_store_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (path.empty()) return;
    // Entries, quarantined entries, stray temp files — then the directory.
    const std::string cleanup = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  }
  // Counts the `.art` entries visible in the directory.
  std::size_t entry_count() const {
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      count += entry.path().extension() == ".art";
    }
    return count;
  }
};

// ---- disk store ------------------------------------------------------------

TEST(DiskStore, RoundTripsBytesExactlyAcrossInstances) {
  TempDir dir;
  // Artifacts with NUL bytes, no trailing newline, and embedded header-like
  // lines must all survive byte-exact — the format is length-delimited.
  const std::string artifacts[] = {
      "plain artifact\n",
      std::string("nul\0bytes\0inside", 16),
      "no trailing newline",
      "digest 0000000000000000\nlen 3\nlooks like a header",
      "",
  };
  {
    DiskStore store(dir.path);
    for (std::uint64_t key = 0; key < std::size(artifacts); ++key) {
      store.insert(key, artifacts[key]);
    }
    EXPECT_EQ(store.stats().writes, std::size(artifacts));
    EXPECT_EQ(dir.entry_count(), std::size(artifacts));
  }
  // A second instance over the same directory — the daemon-restart shape.
  DiskStore reopened(dir.path);
  for (std::uint64_t key = 0; key < std::size(artifacts); ++key) {
    const auto loaded = reopened.lookup(key);
    ASSERT_TRUE(loaded.has_value()) << key;
    EXPECT_EQ(*loaded, artifacts[key]) << key;
  }
  const DiskStoreStats stats = reopened.stats();
  EXPECT_EQ(stats.hits, std::size(artifacts));
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(DiskStore, MissesAreCountedNotFatal) {
  TempDir dir;
  DiskStore store(dir.path);
  EXPECT_FALSE(store.lookup(42).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(DiskStore, CrashMidWriteLeavesNoVisibleEntry) {
  TempDir dir;
  DiskStore store(dir.path);
  // The atomic-write discipline stages bytes in `<entry>.tmp` and renames.
  // A SIGKILL between open and rename leaves exactly this file behind:
  const std::string orphan = store.entry_path(7) + ".tmp";
  {
    std::FILE* f = std::fopen(orphan.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("bccd-artifact v1\nkey 00000000000000", f);  // torn mid-header
    std::fclose(f);
  }
  // The torn temp file is invisible: not an entry, not a hit, not quarantined.
  EXPECT_EQ(dir.entry_count(), 0u);
  EXPECT_FALSE(store.lookup(7).has_value());
  EXPECT_EQ(store.stats().quarantined, 0u);
  // A completed write for the same key lands next to the orphan and wins.
  store.insert(7, "recomputed after the crash");
  const auto loaded = store.lookup(7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "recomputed after the crash");
}

TEST(DiskStore, BitRotIsQuarantinedAndRecomputable) {
  TempDir dir;
  DiskStore store(dir.path);
  const std::string artifact = "rank certificate: full rank = yes\n";
  store.insert(9, artifact);
  ASSERT_TRUE(store.corrupt_entry_for_test(9));

  // The rotted entry is never served: quarantined, counted, reported a miss.
  EXPECT_FALSE(store.lookup(9).has_value());
  DiskStoreStats stats = store.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(dir.entry_count(), 0u);  // moved aside to .quarantined

  // Transparent recompute path: a fresh insert restores service.
  store.insert(9, artifact);
  const auto again = store.lookup(9);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, artifact);
  EXPECT_EQ(store.stats().quarantined, 1u);  // the old rot, not the new entry
}

TEST(DiskStore, TruncatedEntryIsQuarantined) {
  TempDir dir;
  DiskStore store(dir.path);
  store.insert(3, std::string(100, 'z'));
  // Torn tail: rewrite the entry file with its last 40 bytes missing (the
  // shape of a torn non-atomic write or a truncating filesystem error).
  const std::string path = store.entry_path(3);
  const std::string whole = read_file(path);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(whole.data(), 1, whole.size() - 40, f);
    std::fclose(f);
  }
  EXPECT_FALSE(store.lookup(3).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST(DiskStore, KeyFilenameMismatchIsQuarantined) {
  TempDir dir;
  DiskStore store(dir.path);
  store.insert(11, "artifact for key eleven");
  // A rename gone wrong (or an operator copying entries around): the file
  // sits at key 12's path but records key 11. Content addressing must refuse.
  ASSERT_EQ(std::rename(store.entry_path(11).c_str(), store.entry_path(12).c_str()), 0);
  EXPECT_FALSE(store.lookup(12).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
}

TEST(DiskStore, PaddedOrSignedHeaderIsQuarantined) {
  TempDir dir;
  DiskStore store(dir.path);
  store.insert(5, "abc");
  const std::string path = store.entry_path(5);
  const std::string clean = read_file(path);
  const std::size_t len = clean.find("len 3\n");
  const std::size_t key_end = clean.find('\n', clean.find("key "));
  ASSERT_NE(len, std::string::npos);
  const std::string rewrites[] = {
      std::string(clean).replace(len, 5, "len +3"),
      std::string(clean).replace(len, 5, "len  3"),
      std::string(clean).insert(key_end, " "),  // trailing space after the key
  };
  std::uint64_t quarantined = 0;
  for (const std::string& bytes : rewrites) {
    write_file_atomic(path, bytes);
    EXPECT_FALSE(store.lookup(5).has_value()) << bytes;
    EXPECT_EQ(store.stats().quarantined, ++quarantined) << bytes;
  }
  write_file_atomic(path, clean);
  EXPECT_EQ(store.lookup(5), std::optional<std::string>("abc"));
}

TEST(DiskStore, RejectsUnusableDirectory) {
  EXPECT_THROW(DiskStore("/proc/definitely/not/creatable"), ServeError);
}

// ---- chaos spec parsing ----------------------------------------------------

TEST(ChaosSpec, ParsesEveryKeyAndDefaultsToNoFaults) {
  const ServeFaultPlan none = parse_serve_fault_spec("");
  EXPECT_FALSE(none.enabled());

  const ServeFaultPlan plan = parse_serve_fault_spec(
      "seed=7,crash-after=40,stall-every=3,stall-ms=20,corrupt-response-every=5,"
      "corrupt-disk-every=4");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.crash_after, 40u);
  EXPECT_EQ(plan.stall_every, 3u);
  EXPECT_EQ(plan.stall_ms, 20u);
  EXPECT_EQ(plan.corrupt_response_every, 5u);
  EXPECT_EQ(plan.corrupt_disk_every, 4u);
  EXPECT_TRUE(plan.enabled());
}

TEST(ChaosSpec, MalformedSpecsThrowLoudly) {
  EXPECT_THROW(parse_serve_fault_spec("unknown-key=1"), ServeError);
  EXPECT_THROW(parse_serve_fault_spec("crash-after"), ServeError);       // no value
  EXPECT_THROW(parse_serve_fault_spec("crash-after=abc"), ServeError);   // not a number
  EXPECT_THROW(parse_serve_fault_spec("crash-after=-1"), ServeError);    // signed
  EXPECT_THROW(parse_serve_fault_spec("crash-after=1x"), ServeError);    // trailing junk
  EXPECT_THROW(parse_serve_fault_spec("stall-ms=20"), ServeError);       // needs stall-every
  EXPECT_THROW(parse_serve_fault_spec("seed=1,,seed=2"), ServeError);    // empty field
}

TEST(ChaosSpec, EnvVariableFollowsTheStrictDiscipline) {
  ASSERT_EQ(unsetenv("BCCLB_SERVE_FAULTS"), 0);
  EXPECT_FALSE(serve_fault_plan_from_env().has_value());
  ASSERT_EQ(setenv("BCCLB_SERVE_FAULTS", "seed=5,stall-every=2,stall-ms=1", 1), 0);
  const auto plan = serve_fault_plan_from_env();
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->stall_every, 2u);
  ASSERT_EQ(setenv("BCCLB_SERVE_FAULTS", "garbage", 1), 0);
  EXPECT_THROW(serve_fault_plan_from_env(), ServeError);
  ASSERT_EQ(unsetenv("BCCLB_SERVE_FAULTS"), 0);
}

// ---- chaos injector determinism -------------------------------------------

TEST(ChaosInjector, ScheduleIsAPureFunctionOfPlanAndCallSequence) {
  ServeFaultPlan plan;
  plan.seed = 2019;
  plan.corrupt_response_every = 3;
  plan.stall_every = 2;
  plan.stall_ms = 5;

  // Two injectors over the same plan, driven through the same call sequence,
  // must make identical decisions — byte indices and masks included.
  ServeFaultInjector a(plan), b(plan);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(a.stall_for_response(), b.stall_for_response()) << i;
    std::size_t idx_a = 0, idx_b = 0;
    unsigned char mask_a = 0, mask_b = 0;
    const bool hit_a = a.corrupt_response(100, idx_a, mask_a);
    const bool hit_b = b.corrupt_response(100, idx_b, mask_b);
    EXPECT_EQ(hit_a, hit_b) << i;
    if (hit_a) {
      EXPECT_EQ(idx_a, idx_b) << i;
      EXPECT_EQ(mask_a, mask_b) << i;
      EXPECT_LT(idx_a, 100u) << i;
      EXPECT_NE(mask_a, 0) << i;  // a zero mask would be a no-op "fault"
    }
  }
  EXPECT_EQ(a.responses_corrupted(), 8u);  // every 3rd of 24
  EXPECT_EQ(a.stalls_injected(), 12u);     // every 2nd of 24
  EXPECT_EQ(a.responses_corrupted(), b.responses_corrupted());
  EXPECT_EQ(a.stalls_injected(), b.stalls_injected());
}

TEST(ChaosInjector, CrashFiresExactlyOnceAtTheConfiguredOrdinal) {
  ServeFaultPlan plan;
  plan.crash_after = 4;
  ServeFaultInjector injector(plan);
  int fired_at = -1;
  for (int i = 1; i <= 10; ++i) {
    if (injector.should_crash_before_reply()) {
      EXPECT_EQ(fired_at, -1) << "crash fired twice";
      fired_at = i;
    }
  }
  EXPECT_EQ(fired_at, 4);
}

TEST(ChaosInjector, DisabledFaultsNeverFire) {
  ServeFaultInjector injector(ServeFaultPlan{});
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(injector.should_crash_before_reply());
    EXPECT_EQ(injector.stall_for_response(), 0u);
    std::size_t idx = 0;
    unsigned char mask = 0;
    EXPECT_FALSE(injector.corrupt_response(64, idx, mask));
    EXPECT_FALSE(injector.should_corrupt_disk_entry());
  }
  EXPECT_EQ(injector.stalls_injected(), 0u);
  EXPECT_EQ(injector.responses_corrupted(), 0u);
  EXPECT_EQ(injector.disk_entries_corrupted(), 0u);
}

}  // namespace
}  // namespace bcclb
