// Durable, content-addressed on-disk artifact tier for the serving daemon.
//
// Tier 2 behind the in-memory ArtifactCache: the paper's expensive
// certificates (Theorem 4.4 rank certificates, Theorem 3.1 indist-graph
// CSRs) are pure functions of their FNV-1a cache key, so once computed they
// should survive daemon crashes and be computed once, ever. Each entry is
// one file `<16-hex-key>.art` under the store directory, written with the
// PR 3 checkpoint discipline (write to `.tmp`, fsync, rename) so a SIGKILL
// at any instant leaves either no visible entry or a complete one — never a
// torn file a later daemon could serve.
//
// Entry format (self-verifying; byte-exact round trip):
//
//     bccd-artifact v1\n
//     key <16 hex>\n          must match the file name
//     digest <16 hex>\n       FNV-1a of the artifact bytes
//     len <decimal>\n         artifact byte count (must consume the rest)
//     <raw artifact bytes>
//
// Every read re-verifies all four header fields and the digest. Any failure
// — truncation, bit rot, a key/filename mismatch, trailing garbage — moves
// the file aside to `<name>.quarantined` (kept for forensics, never read
// again), counts it, and reports a miss so the scheduler transparently
// recomputes. A corrupt entry is therefore never served, and the quarantine
// counter is the observable proof.
//
// Thread-safety matches ArtifactCache: the scheduler thread is the only
// writer, the I/O thread reads counters for the stats probe.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace bcclb {

struct DiskStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;            // absent entries (normal cold path)
  std::uint64_t writes = 0;            // completed atomic writes
  std::uint64_t write_failures = 0;    // filesystem refused; counted, not fatal
  std::uint64_t quarantined = 0;       // corrupt entries moved aside on read
};

class DiskStore {
 public:
  // Creates `dir` if missing (one level). Throws ServeError if the directory
  // cannot be created or is not usable.
  explicit DiskStore(std::string dir);

  // Verified read: the artifact bytes exactly as insert() stored them, or
  // nullopt on miss. A file that fails any integrity check is quarantined
  // and reported as a miss — corruption degrades to a recompute.
  std::optional<std::string> lookup(std::uint64_t key);

  // Durable write via temp-then-rename(+fsync). A filesystem failure is
  // counted in write_failures and swallowed: the disk tier is an
  // availability optimization, losing a write must never fail the request.
  void insert(std::uint64_t key, std::string_view artifact);

  DiskStoreStats stats() const;

  const std::string& dir() const { return dir_; }

  // Path of the entry file for `key` (exists or not) — used by tests and the
  // chaos harness to corrupt entries from outside.
  std::string entry_path(std::uint64_t key) const;

  // Test/chaos hook: XOR-flips one byte of the stored artifact body for
  // `key`, in place on disk, leaving the recorded digest stale — the exact
  // shape of bit rot the read path must catch. Returns false when absent.
  bool corrupt_entry_for_test(std::uint64_t key);

 private:
  std::optional<std::string> read_verified(std::uint64_t key, const std::string& path);
  void quarantine(const std::string& path);

  std::string dir_;
  mutable std::mutex mutex_;
  DiskStoreStats stats_;
};

}  // namespace bcclb
