#include "serve/artifact_cache.h"

#include <cstdlib>

#include "bcc/checkpoint.h"
#include "core/campaign.h"

namespace bcclb {

ArtifactCache::ArtifactCache(std::uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

std::optional<std::string> ArtifactCache::lookup(std::uint64_t key) {
  return find(key, /*count_miss=*/true);
}

std::optional<std::string> ArtifactCache::lookup_hit(std::uint64_t key) {
  return find(key, /*count_miss=*/false);
}

std::optional<std::string> ArtifactCache::find(std::uint64_t key, bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (count_miss) ++misses_;
    return std::nullopt;
  }
  if (fnv1a(it->second.artifact) != it->second.digest) {
    // The bytes rotted since insert. Serving them would hand the client a
    // wrong artifact under a correct key; drop and rebuild instead.
    ++verify_failures_;
    if (count_miss) ++misses_;
    evict_locked(it);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  return it->second.artifact;
}

void ArtifactCache::insert(std::uint64_t key, std::string artifact) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t charge = artifact.size() + kEntryOverheadBytes;
  if (budget_bytes_ != 0 && charge > budget_bytes_) return;  // can never fit

  const auto it = entries_.find(key);
  if (it != entries_.end()) evict_locked(it);  // refresh: replace wholesale

  while (budget_bytes_ != 0 && bytes_ + charge > budget_bytes_ && !lru_.empty()) {
    ++evictions_;
    evict_locked(entries_.find(lru_.back()));
  }

  lru_.push_front(key);
  Entry entry;
  entry.digest = fnv1a(artifact);
  entry.artifact = std::move(artifact);
  entry.lru_it = lru_.begin();
  bytes_ += charge;
  entries_.emplace(key, std::move(entry));
}

void ArtifactCache::evict_locked(std::unordered_map<std::uint64_t, Entry>::iterator it) {
  bytes_ -= it->second.artifact.size() + kEntryOverheadBytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.verify_failures = verify_failures_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  s.budget_bytes = budget_bytes_;
  return s;
}

bool ArtifactCache::corrupt_entry_for_test(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.artifact.empty()) return false;
  it->second.artifact[0] ^= 0x01;
  return true;
}

std::uint64_t resolve_cache_budget(std::uint64_t configured_bytes) {
  if (configured_bytes != 0) return configured_bytes;
  if (const char* env = std::getenv("BCCLB_MEM_BUDGET")) {
    if (const auto parsed = parse_mem_bytes(env)) return *parsed;
  }
  return 64ULL << 20;  // 64 MiB
}

}  // namespace bcclb
