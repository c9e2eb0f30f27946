// Deterministic fault injection for BCC(b) runs.
//
// The paper's lower bounds assume a fault-free BCC(1); the tightness story
// (Section 5-style upper bounds: min-ID flood, Boruvka, sketch connectivity)
// invites the classic question of how those protocols degrade under crash
// and corruption faults. A FaultPlan is a seeded, fully explicit schedule of
// fault events — crash-stop a vertex from round r on, drop (silence) one
// broadcast, XOR-flip message bits, or byzantine-replace a broadcast — that
// the round loop (SoaRoundEngine) compiles into a per-run FaultInjector.
// Injection is a pure function of (plan, round, vertex), so faulty runs stay
// replayable and bit-identical across thread counts, and every applied event
// is recorded alongside the transcript (RunResult::faults_applied).
//
// Transient plans model soft errors: the plan fires on attempt 0 only, so a
// retry (BatchRunner's bounded-retry policy) re-executes fault-free.
#pragma once

#include <cstdint>
#include <vector>

#include "bcc/message.h"
#include "common/random.h"
#include "graph/graph.h"

namespace bcclb {

enum class FaultKind : std::uint8_t {
  kCrashStop,         // vertex broadcasts silence from `round` onward
  kDropBroadcast,     // vertex's broadcast in exactly `round` is silenced
  kFlipBits,          // XOR `payload` into the round's broadcast (if any)
  kByzantineReplace,  // replace the round's broadcast with payload/payload_bits
};

const char* fault_kind_name(FaultKind kind);

// One scheduled fault. For kFlipBits, `payload` is the XOR mask (truncated to
// the message's length; silent broadcasts stay silent). For
// kByzantineReplace, `payload`/`payload_bits` define the forged message;
// payload_bits == 0 forges silence.
struct FaultEvent {
  unsigned round = 0;
  VertexId vertex = 0;
  FaultKind kind = FaultKind::kDropBroadcast;
  std::uint64_t payload = 0;
  unsigned payload_bits = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// An event the injector actually applied, with the message it saw and the
// message it substituted — the audit record that makes a faulty transcript
// explainable. Crash-stop is logged once, at its first effective round.
struct AppliedFault {
  unsigned round = 0;
  VertexId vertex = 0;
  FaultKind kind = FaultKind::kDropBroadcast;
  Message before;
  Message after;
};

// How many faults of each kind FaultPlan::random schedules.
struct FaultCounts {
  unsigned crashes = 0;
  unsigned drops = 0;
  unsigned flips = 0;
  unsigned byzantine = 0;

  unsigned total() const { return crashes + drops + flips + byzantine; }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Builder API; each returns *this for chaining.
  FaultPlan& crash(VertexId vertex, unsigned round);
  FaultPlan& drop(VertexId vertex, unsigned round);
  FaultPlan& flip(VertexId vertex, unsigned round, std::uint64_t mask);
  FaultPlan& byzantine(VertexId vertex, unsigned round, std::uint64_t value, unsigned bits);

  // Marks the plan transient: it fires on attempt 0 only, so a retry runs
  // fault-free (the BatchRunner retry policy's model of a soft error).
  FaultPlan& set_transient(bool transient = true);

  // A seeded random schedule over n vertices and rounds [0, max_rounds):
  // distinct crash victims, then drops/flips/byzantine events at uniform
  // (vertex, round) positions. Deterministic in (seed, n, max_rounds, counts).
  static FaultPlan random(std::uint64_t seed, std::size_t n, unsigned max_rounds,
                          const FaultCounts& counts);

  bool empty() const { return events_.empty(); }
  bool transient() const { return transient_; }
  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  std::vector<FaultEvent> events_;
  bool transient_ = false;
};

// The per-run compiled form of a FaultPlan: O(1) per-(vertex, round) lookup
// in the engine's broadcast loop, plus the applied-event log. One injector
// serves one run; the engine builds it from the plan at run start.
class FaultInjector {
 public:
  // `attempt` > 0 disables a transient plan (see FaultPlan::set_transient).
  // `instance_digest` tags FaultInjectionErrors with the failing instance.
  FaultInjector(const FaultPlan& plan, std::size_t n, unsigned bandwidth,
                std::uint64_t instance_digest, unsigned attempt = 0);

  // Applies any fault scheduled for (round, vertex) to the vertex's
  // broadcast and returns the effective message. Throws FaultInjectionError
  // if a forged message exceeds the run's bandwidth.
  Message apply(unsigned round, VertexId vertex, const Message& broadcast);

  // True when the plan has crashed `vertex` at or before `round` (such a
  // vertex counts as finished for run termination).
  bool crashed(VertexId vertex, unsigned round) const {
    return crash_round_[vertex] <= round;
  }

  // Whether any vertex ever crashes under this plan.
  bool has_crashes() const { return has_crashes_; }

  const std::vector<AppliedFault>& log() const { return log_; }
  std::vector<AppliedFault> take_log() { return std::move(log_); }

  // Crash victims whose crash round was reached, ascending.
  std::vector<VertexId> crashed_by(unsigned round) const;

 private:
  std::vector<unsigned> crash_round_;  // per vertex; UINT_MAX = never
  std::vector<FaultEvent> events_;     // non-crash events, sorted by (round, vertex)
  bool has_crashes_ = false;
  unsigned bandwidth_ = 1;
  std::uint64_t instance_digest_ = 0;
  std::vector<AppliedFault> log_;
};

}  // namespace bcclb
