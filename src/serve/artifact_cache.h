// Content-addressed in-memory LRU artifact cache.
//
// Every artifact the daemon serves is a pure function of its request's
// canonical encoding, so the FNV-1a digest of that encoding (the PR 2 digest
// family — see bcc/checkpoint.h) is a complete address: equal keys mean
// equal artifacts, bit for bit. The cache stores (key -> artifact bytes +
// artifact digest) under a byte budget (BCCLB_MEM_BUDGET plumbing), evicts
// least-recently-used entries when inserts would overflow it, and
// re-verifies the stored digest on *every* hit — a corrupted entry is
// dropped and recounted as a miss rather than served, so bit rot degrades to
// a rebuild, never to a wrong answer.
//
// Thread-safe: the daemon's I/O thread looks up memory-tier hits, its
// scheduler looks up, inserts and evicts, and the stats probe reads counters.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace bcclb {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t verify_failures = 0;  // hits whose digest re-check failed
  std::size_t entries = 0;
  std::size_t bytes = 0;              // artifact bytes currently resident
  std::uint64_t budget_bytes = 0;     // 0 = unlimited
};

class ArtifactCache {
 public:
  // Accounting charge per entry beyond the artifact bytes (map node, list
  // node, digest). An estimate — the budget is a sizing knob, not an
  // allocator contract.
  static constexpr std::size_t kEntryOverheadBytes = 128;

  // budget_bytes == 0 means unlimited. Entries are charged their artifact
  // size plus a fixed per-entry overhead estimate, so a budget of B bytes
  // really bounds resident memory near B.
  explicit ArtifactCache(std::uint64_t budget_bytes);

  // Verified lookup: returns the artifact and bumps the entry to
  // most-recently-used, or nullopt on miss. A hit whose bytes no longer hash
  // to the stored digest is evicted, counted in verify_failures, and
  // reported as a miss.
  std::optional<std::string> lookup(std::uint64_t key);

  // lookup() for a first look whose miss is not the request's final answer:
  // hits and verify failures are counted as lookup() counts them, but a miss
  // is not, because the caller hands the request on to a lookup() that
  // counts it. Each request then counts once, as a hit or as a miss.
  std::optional<std::string> lookup_hit(std::uint64_t key);

  // Inserts (or refreshes) an entry, evicting LRU entries until the budget
  // holds. An artifact alone larger than the whole budget is not cached.
  void insert(std::uint64_t key, std::string artifact);

  CacheStats stats() const;

  // Test hook: flips one byte of the stored artifact for `key` (if present)
  // without touching its digest, so tests can prove the hit-path
  // re-verification actually rejects rot. Returns false when absent.
  bool corrupt_entry_for_test(std::uint64_t key);

 private:
  struct Entry {
    std::string artifact;
    std::uint64_t digest = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };

  std::optional<std::string> find(std::uint64_t key, bool count_miss);
  void evict_locked(std::unordered_map<std::uint64_t, Entry>::iterator it);

  mutable std::mutex mutex_;
  std::uint64_t budget_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, verify_failures_ = 0;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Entry> entries_;
};

// The daemon's cache budget: explicit config wins, else BCCLB_MEM_BUDGET
// (parse_mem_bytes syntax), else a 64 MiB default.
std::uint64_t resolve_cache_budget(std::uint64_t configured_bytes);

}  // namespace bcclb
