// Strict environment-variable parsing, centralized.
//
// PR 2 established the contract for BCCLB_THREADS: a whole-string parse that
// rejects leading whitespace, signs, trailing garbage, and overflow, so a
// typo'd override is never half-trusted. Every numeric BCCLB_* variable goes
// through this one parser now — default_parallel_threads() delegates here,
// as do the CLI's numeric flags. Structured variables build on the same
// primitives: BCCLB_SERVE_FAULTS (the serving chaos schedule, serve/chaos.h)
// parses each key=value field with parse_env_u64 and throws on anything it
// does not recognize. The persisted formats use the same rule: every number
// in the campaign checkpoint, the rank checkpoint and the disk-store entry
// header goes through parse_env_u64 via RecordReader (bcc/checkpoint.h), as
// does every number in the golden stores' JSON.
//
// A malformed value yields nullopt and the caller decides: the CLI rejects a
// malformed flag, default_parallel_threads falls back to the hardware
// default (its documented behaviour), and the test-hook delays are ignored.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace bcclb {

// Strict whole-string unsigned decimal parse: at least one digit, nothing
// but digits, no overflow past 2^64 - 1. Anything else is nullopt.
std::optional<std::uint64_t> parse_env_u64(std::string_view text);

// getenv(name) through parse_env_u64; nullopt when the variable is unset or
// malformed (a malformed value is never trusted).
std::optional<std::uint64_t> env_u64(const char* name);

// Raw string lookup: nullopt when unset. (For structured variables like
// BCCLB_SERVE_FAULTS whose validation lives with their own parser.)
std::optional<std::string_view> env_string(const char* name);

// Strict parse of a byte budget: whole number with optional single K/M/G
// suffix (binary: K = 1024, ...). Rejects empty, negative, trailing junk and
// overflow. This is the BCCLB_MEM_BUDGET / --mem-budget syntax, shared by
// the campaign runner, the artifact cache, and the out-of-core rank tiler.
std::optional<std::uint64_t> parse_mem_bytes(const char* text);

}  // namespace bcclb
