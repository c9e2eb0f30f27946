// Checksummed, atomically-replaced snapshot files.
//
// Campaign state must survive kill -9: a snapshot that is only ever replaced
// by write-temp-then-rename is either the previous complete version or the
// next complete version, never a torn mix. Every snapshot carries a trailing
// FNV-1a checksum line over its body, so truncation, bit rot, and hand
// edits are detected on read (typed CheckpointError) instead of being
// silently resumed. The layer is content-agnostic — core/campaign defines
// what the body means; this file guarantees only atomicity and integrity.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace bcclb {

// FNV-1a over raw bytes — the same fingerprint family as
// BccInstance::digest() and Transcript::digest(), exposed once so
// checkpoints, golden stores, and job outputs all hash identically.
std::uint64_t fnv1a(std::string_view bytes);

// 16-hex-digit lowercase rendering of a digest, the canonical textual form
// used in checkpoints and golden.json.
std::string digest_hex(std::uint64_t digest);

// Parses digest_hex output; returns false on anything but exactly 16 hex
// digits.
bool parse_digest_hex(std::string_view text, std::uint64_t& digest);

// Atomically replaces `path` with `body` followed by a "checksum <hex>"
// trailer line: the bytes land in `path + ".tmp"`, are flushed to disk, and
// the temp file is renamed over `path`. A crash at any point leaves either
// the old snapshot or the new one. Throws CheckpointError if the filesystem
// refuses (unwritable directory, rename failure).
void write_snapshot_atomic(const std::string& path, std::string body);

// Reads `path` and verifies the checksum trailer; returns the body with the
// trailer stripped. Throws CheckpointError naming the file on: missing or
// unreadable file, missing/malformed trailer, or checksum mismatch
// (truncation and corruption both land here).
std::string read_snapshot(const std::string& path);

// Plain-file variants for job output artifacts, which must stay byte-exact
// (no trailer): the write is still temp-then-rename, and integrity comes
// from the digest recorded in the campaign checkpoint instead.
void write_file_atomic(const std::string& path, std::string_view bytes);

// Reads a whole file; throws CheckpointError if it cannot be opened.
std::string read_file(const std::string& path);

bool file_exists(const std::string& path);

// ---- line records ----------------------------------------------------------
// RecordReader reads the grammar the campaign checkpoint, the rank checkpoint
// and the disk-store entry header share (DESIGN.md §5): one '\n'-terminated
// record per line, fields separated by exactly one space, numbers under
// parse_env_u64 (common/env.h), digests under parse_digest_hex. Every failure
// throws CheckpointError prefixed with the caller's context and the line.
class RecordReader {
 public:
  RecordReader(std::string_view text, std::string context);

  // The next record's fields, which must match `shape`: as many fields, each
  // equal to its shape entry unless that entry is empty (a value slot).
  std::vector<std::string_view> next(std::initializer_list<std::string_view> shape);
  std::string_view line() const { return line_; }  // the last record, without '\n'
  std::uint64_t u64(std::string_view field) const;
  std::uint64_t digest(std::string_view field) const;
  // Consumes `records` (whole lines) if the unread text starts with them.
  void expect_bytes(std::string_view records, const std::string& why);
  void expect_end() const;  // nothing may follow the last record
  std::string_view rest() const { return text_.substr(at_); }
  [[noreturn]] void fail(const std::string& why) const;

 private:
  std::string_view text_;
  std::string context_;
  std::size_t at_ = 0;
  std::size_t line_no_ = 0;
  std::string_view line_;
};

}  // namespace bcclb
