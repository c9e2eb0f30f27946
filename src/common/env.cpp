#include "common/env.h"

#include <cerrno>
#include <cstdlib>

namespace bcclb {

std::optional<std::uint64_t> parse_env_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::uint64_t> parse_mem_bytes(const char* text) {
  if (text == nullptr || text[0] < '0' || text[0] > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || errno == ERANGE) return std::nullopt;
  std::uint64_t multiplier = 1;
  if (*end == 'K' || *end == 'M' || *end == 'G') {
    multiplier = *end == 'K' ? (1ULL << 10) : *end == 'M' ? (1ULL << 20) : (1ULL << 30);
    ++end;
  }
  if (*end != '\0') return std::nullopt;
  if (multiplier != 1 && value > UINT64_MAX / multiplier) return std::nullopt;
  return static_cast<std::uint64_t>(value) * multiplier;
}

std::optional<std::uint64_t> env_u64(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return parse_env_u64(raw);
}

std::optional<std::string_view> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  return std::string_view(raw);
}

}  // namespace bcclb
