#include "bcc/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <sys/stat.h>

#include "common/env.h"
#include "common/errors.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define BCCLB_HAVE_FSYNC 1
#endif

namespace bcclb {

namespace {

constexpr std::string_view kChecksumPrefix = "checksum ";

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw CheckpointError("checkpoint '" + path + "': " + why);
}

// Writes bytes to path + ".tmp", flushes them to stable storage, and renames
// the temp file over path. Shared by the trailer and plain-file writers.
void replace_atomically(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) fail(path, "cannot open temp file '" + tmp + "' for writing");
  const std::size_t written = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool ok = written == bytes.size();
  ok = std::fflush(f) == 0 && ok;
#ifdef BCCLB_HAVE_FSYNC
  // The rename is only crash-atomic if the temp file's bytes are durable
  // first; otherwise a power cut can leave a renamed-but-empty snapshot.
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    fail(path, "short write to temp file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail(path, "rename from '" + tmp + "' failed");
  }
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string digest_hex(std::uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  return hex;
}

bool parse_digest_hex(std::string_view text, std::uint64_t& digest) {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    unsigned nibble;
    if (c >= '0' && c <= '9') nibble = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') nibble = static_cast<unsigned>(c - 'a') + 10;
    else return false;
    value = (value << 4) | nibble;
  }
  digest = value;
  return true;
}

void write_snapshot_atomic(const std::string& path, std::string body) {
  if (!body.empty() && body.back() != '\n') body += '\n';
  const std::uint64_t checksum = fnv1a(body);
  body += kChecksumPrefix;
  body += digest_hex(checksum);
  body += '\n';
  replace_atomically(path, body);
}

std::string read_snapshot(const std::string& path) {
  std::string all = read_file(path);
  // The trailer is the last line: "checksum <16 hex>\n". Anything else —
  // including a file truncated mid-write, which cannot end in a valid
  // trailer over the bytes before it — is corruption.
  if (all.empty() || all.back() != '\n') fail(path, "truncated (missing final newline)");
  all.pop_back();
  const std::size_t line_start = all.rfind('\n') + 1;  // 0 when one line
  const std::string_view trailer = std::string_view(all).substr(line_start);
  if (trailer.substr(0, kChecksumPrefix.size()) != kChecksumPrefix) {
    fail(path, "missing checksum trailer");
  }
  std::uint64_t recorded = 0;
  if (!parse_digest_hex(trailer.substr(kChecksumPrefix.size()), recorded)) {
    fail(path, "malformed checksum trailer");
  }
  std::string body = all.substr(0, line_start);
  const std::uint64_t actual = fnv1a(body);
  if (actual != recorded) {
    fail(path, "checksum mismatch (recorded " + digest_hex(recorded) + ", content hashes to " +
                   digest_hex(actual) + ") — refusing to resume from a corrupt snapshot");
  }
  return body;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  replace_atomically(path, bytes);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail(path, "cannot open for reading");
  std::string out;
  char buf[1 << 14];
  for (;;) {
    const std::size_t got = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, got);
    if (got < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) fail(path, "read error");
  return out;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

RecordReader::RecordReader(std::string_view text, std::string context)
    : text_(text), context_(std::move(context)) {}

std::vector<std::string_view> RecordReader::next(std::initializer_list<std::string_view> shape) {
  ++line_no_;
  const std::size_t nl = text_.find('\n', at_);
  if (nl == std::string_view::npos) fail("missing or truncated record");
  line_ = text_.substr(at_, nl - at_);
  at_ = nl + 1;
  std::vector<std::string_view> fields;
  for (std::size_t start = 0, space = 0; start <= line_.size(); start = space + 1) {
    space = std::min(line_.find(' ', start), line_.size());
    if (space == start) fail("empty field (fields are separated by exactly one space)");
    fields.push_back(line_.substr(start, space - start));
  }
  bool match = shape.size() == fields.size();
  for (std::size_t i = 0; match && i < shape.size(); ++i) {
    match = shape.begin()[i].empty() || shape.begin()[i] == fields[i];
  }
  if (!match) fail("malformed record '" + std::string(line_.substr(0, 80)) + "'");
  return fields;
}

std::uint64_t RecordReader::u64(std::string_view field) const {
  const auto value = parse_env_u64(field);
  if (!value) fail("'" + std::string(field) + "' is not an unsigned decimal");
  return *value;
}

std::uint64_t RecordReader::digest(std::string_view field) const {
  std::uint64_t value = 0;
  if (!parse_digest_hex(field, value)) fail("'" + std::string(field) + "' is not a 16-hex digest");
  return value;
}

void RecordReader::expect_bytes(std::string_view records, const std::string& why) {
  if (!rest().starts_with(records)) {
    ++line_no_;
    fail(why);
  }
  at_ += records.size();
  line_no_ += static_cast<std::size_t>(std::count(records.begin(), records.end(), '\n'));
}

void RecordReader::expect_end() const {
  if (at_ != text_.size()) fail("unexpected data after this record");
}

void RecordReader::fail(const std::string& why) const {
  throw CheckpointError(context_ + ": line " + std::to_string(line_no_) + ": " + why);
}

}  // namespace bcclb
