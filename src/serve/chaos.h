// Deterministic chaos injection for the serving daemon.
//
// The PR 2 FaultPlan philosophy — a seeded, fully explicit schedule of fault
// events, applied as a pure function of (plan, position) — pointed at the
// serving layer. A ServeFaultPlan is compiled into the server behind the
// BCCLB_SERVE_FAULTS env spec; every fault fires at a response/write ordinal
// with byte positions drawn from SplitMix64(seed, ordinal), so a chaos
// scenario replays bit-identically: same spec, same request order, same
// faults.
//
// Spec syntax (comma-separated key=value, strict whole-number parses):
//
//     BCCLB_SERVE_FAULTS="seed=7,crash-after=40"
//     BCCLB_SERVE_FAULTS="corrupt-response-every=5,stall-every=3,stall-ms=20"
//     BCCLB_SERVE_FAULTS="seed=9,corrupt-disk-every=4"
//
// Keys (0 disables each fault; all default 0):
//   seed                   — byte/mask selection seed
//   crash-after=N          — _Exit(137) immediately before writing the N-th
//                            answered request, scheduled or a memory-tier
//                            hit served inline (crash-before-reply): the
//                            work was done, the client never hears — the
//                            SIGKILL shape the durable tier must absorb
//   stall-every=K          — every K-th scheduled response sleeps stall-ms on
//                            the scheduler thread. Stalls apply to scheduled
//                            responses only: a memory-tier hit answered by
//                            the I/O thread never stalls and does not advance
//                            the stall ordinal, so health probes keep working
//   stall-ms=M             — the stall duration (needs stall-every)
//   corrupt-response-every=K — every K-th OK response, scheduled or inline,
//                            has one artifact byte XOR-flipped *after* the
//                            digest was computed, so clients must catch it by
//                            digest verification
//   corrupt-disk-every=K   — every K-th disk-tier write is bit-flipped in
//                            place after landing (injected bit rot; the read
//                            path must quarantine, never serve)
//
// A malformed spec throws ServeError naming the offending token — chaos that
// silently parses to "no faults" would be worse than no chaos at all.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace bcclb {

struct ServeFaultPlan {
  std::uint64_t seed = 0;
  std::uint64_t crash_after = 0;             // 0 = never
  std::uint64_t stall_every = 0;             // 0 = never
  std::uint64_t stall_ms = 0;
  std::uint64_t corrupt_response_every = 0;  // 0 = never
  std::uint64_t corrupt_disk_every = 0;      // 0 = never

  bool enabled() const {
    return crash_after != 0 || stall_every != 0 || corrupt_response_every != 0 ||
           corrupt_disk_every != 0;
  }

  friend bool operator==(const ServeFaultPlan&, const ServeFaultPlan&) = default;
};

// Parses the spec syntax above. Throws ServeError on an unknown key, a
// malformed number, or stall-ms without stall-every. Empty spec = no faults.
ServeFaultPlan parse_serve_fault_spec(std::string_view spec);

// BCCLB_SERVE_FAULTS through the parser; nullopt when unset. A set-but-
// malformed spec throws, so a broken override fails loudly.
std::optional<ServeFaultPlan> serve_fault_plan_from_env();

// The compiled, counting form the server holds: each should_* call advances
// the matching ordinal, so injection is a pure function of the plan and the
// sequence of calls. Thread-safe under one mutex: the scheduler and the I/O
// thread (inline hits) both call it, and the stats probe reads the tallies.
class ServeFaultInjector {
 public:
  explicit ServeFaultInjector(const ServeFaultPlan& plan) : plan_(plan) {}

  const ServeFaultPlan& plan() const { return plan_; }

  // True exactly once: when the crash-after-th answered request is about
  // to be delivered. The caller is expected to _Exit and never return.
  bool should_crash_before_reply();

  // Milliseconds to stall this scheduled response (0 = none). Only the
  // scheduler calls it; inline hits never stall.
  std::uint64_t stall_for_response();

  // If this OK response must be corrupted, picks the byte index in
  // [0, artifact_size) and a non-zero XOR mask, both seeded by the response
  // ordinal. Returns false for clean responses or empty artifacts.
  bool corrupt_response(std::size_t artifact_size, std::size_t& byte_index,
                        unsigned char& mask);

  // True when the current disk write should be bit-flipped after landing.
  bool should_corrupt_disk_entry();

  std::uint64_t stalls_injected() const;
  std::uint64_t responses_corrupted() const;
  std::uint64_t disk_entries_corrupted() const;

 private:
  ServeFaultPlan plan_;
  std::uint64_t responses_ = 0;            // answered requests (crash ordinal)
  std::uint64_t scheduled_responses_ = 0;  // scheduled responses (stall ordinal)
  std::uint64_t ok_responses_ = 0;
  std::uint64_t disk_writes_ = 0;
  std::uint64_t stalls_injected_ = 0;
  std::uint64_t responses_corrupted_ = 0;
  std::uint64_t disk_corrupted_ = 0;
  mutable std::mutex mutex_;
};

}  // namespace bcclb
