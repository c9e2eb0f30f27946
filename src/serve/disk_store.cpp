#include "serve/disk_store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "bcc/checkpoint.h"
#include "common/errors.h"

namespace bcclb {

namespace {

constexpr std::string_view kEntryMagic = "bccd-artifact v1\n";
constexpr std::string_view kEntrySuffix = ".art";

}  // namespace

DiskStore::DiskStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) throw ServeError("disk store: empty directory path");
  if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
    throw ServeError("disk store: cannot create '" + dir_ + "': " + std::strerror(errno));
  }
  struct stat st{};
  if (::stat(dir_.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw ServeError("disk store: '" + dir_ + "' is not a directory");
  }
}

std::string DiskStore::entry_path(std::uint64_t key) const {
  return dir_ + "/" + digest_hex(key) + std::string(kEntrySuffix);
}

std::optional<std::string> DiskStore::lookup(std::uint64_t key) {
  const std::string path = entry_path(key);
  if (!file_exists(path)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  auto artifact = read_verified(key, path);
  std::lock_guard<std::mutex> lock(mutex_);
  if (artifact) {
    ++stats_.hits;
  } else {
    // read_verified already moved the file aside.
    ++stats_.quarantined;
    ++stats_.misses;
  }
  return artifact;
}

std::optional<std::string> DiskStore::read_verified(std::uint64_t key, const std::string& path) {
  try {
    const std::string bytes = read_file(path);
    RecordReader in(bytes, "disk store entry " + path);
    in.expect_bytes(kEntryMagic, "not a bccd artifact");
    const std::uint64_t recorded_key = in.digest(in.next({"key", ""})[1]);
    const std::uint64_t digest = in.digest(in.next({"digest", ""})[1]);
    const std::uint64_t len = in.u64(in.next({"len", ""})[1]);
    // The length must account for every remaining byte: truncated or
    // trailing garbage both fail here.
    const std::string_view artifact = in.rest();
    if (recorded_key != key || artifact.size() != len || fnv1a(artifact) != digest) {
      in.fail("key, length or digest does not match");
    }
    return std::string(artifact);
  } catch (const CheckpointError&) {
    quarantine(path);
    return std::nullopt;
  }
}

void DiskStore::quarantine(const std::string& path) {
  // Keep the corpse for forensics under a name the read path never opens; if
  // even the rename fails (vanished file, read-only fs), unlink as a last
  // resort so the next lookup is an honest miss.
  const std::string aside = path + ".quarantined";
  if (std::rename(path.c_str(), aside.c_str()) != 0) std::remove(path.c_str());
}

void DiskStore::insert(std::uint64_t key, std::string_view artifact) {
  std::string body;
  body.reserve(kEntryMagic.size() + 64 + artifact.size());
  body += kEntryMagic;
  body += "key ";
  body += digest_hex(key);
  body += '\n';
  body += "digest ";
  body += digest_hex(fnv1a(artifact));
  body += '\n';
  body += "len ";
  body += std::to_string(artifact.size());
  body += '\n';
  body += artifact;
  try {
    write_file_atomic(entry_path(key), body);
  } catch (const CheckpointError&) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.write_failures;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.writes;
}

DiskStoreStats DiskStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t DiskStore::entry_count() const {
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return 0;
  std::size_t count = 0;
  while (const dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    if (name.size() > kEntrySuffix.size() &&
        name.substr(name.size() - kEntrySuffix.size()) == kEntrySuffix) {
      ++count;
    }
  }
  ::closedir(d);
  return count;
}

bool DiskStore::corrupt_entry_for_test(std::uint64_t key) {
  const std::string path = entry_path(key);
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const CheckpointError&) {
    return false;
  }
  if (bytes.empty()) return false;
  bytes.back() ^= 0x01;  // last byte is artifact body (len > 0 in practice)
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

}  // namespace bcclb
