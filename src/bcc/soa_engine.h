// The BCC(b) round loop: the one place in the repository a round runs.
//
// Per Section 1.2: in each round every vertex broadcasts at most b bits (or
// stays silent), then receives every other vertex's broadcast.
// SoaRoundEngine runs that loop for a whole-graph SoaProgram: one object
// owns the state of *all* vertices, each round is broadcast(t) filling an
// SoA outbox (value column + width column + packed silence bitset)
// followed by receive(t) reading it. The loop owns everything a run needs
// beyond the protocol itself: the round skeleton, the deadline watchdog,
// the run's single FaultInjector, the bandwidth check, the round-limit
// policy, the transcript digest stream and RunStats.
//
// Two kinds of program run on it. Native programs (SoaMinIdFlood) keep O(n)
// flat state, aggregate with cache-blocked std::uint64_t reductions
// (common/bitset_reduce.h) and may exploit protocol structure to do far
// less than O(n) work per round — the shape for million-node runs.
// RoundEngine (round_engine.h) is the per-vertex adapter: a private
// SoaProgram that owns one VertexAlgorithm per vertex and gathers each
// vertex's (n-1)-message inbox from the outbox — O(n^2) per round, the
// shape for enumeration-scale experiments.
//
// Equivalence contract: a native program paired with a VertexAlgorithm
// must produce the identical broadcast stream — same (silent, width, value)
// for every (round, vertex) — on every instance both can run. Since both
// run on this loop, the contract is about the programs alone; the engine
// streams the canonical round-major transcript digest (transcript.h), and
// soa_engine_test checks RoundEngine on view.to_explicit() against the
// native program on the view for equal round_major_digest, decisions,
// labels and fault audit logs. Transcript digesting walks the outbox
// (O(n)/round), so it is opt-in: on in the equivalence tests, off at scale,
// where the labels digest identifies the outcome instead.
//
// Fault injection: with a plan active the engine round-trips every
// vertex's broadcast through the FaultInjector (dense, O(n)/round — fault
// studies are small-n by nature), delivers the rewritten wire, and restores
// the program's intended broadcasts afterwards so the persistent outbox
// stays consistent. The bandwidth check runs on that post-fault wire, so a
// fault that silences an oversized broadcast is not a violation; every
// violation reports the instance digest, the vertex and the round.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bcc/faults.h"
#include "bcc/instance_view.h"
#include "bcc/message.h"

namespace bcclb {

// Per-run observability: what one execution cost.
struct RunStats {
  unsigned rounds = 0;
  std::uint64_t total_bits = 0;       // sum of broadcast lengths
  std::uint64_t wall_time_ns = 0;     // run() wall time
  std::size_t peak_buffer_bytes = 0;  // engine buffer footprint after the run
};

// One round's broadcasts for all n vertices, struct-of-arrays. The buffer
// persists across rounds: a program only rewrites the slots whose value
// changed, and the running bit total is maintained incrementally so the
// engine's per-round accounting is O(1). A write at the slot's current
// width (the common case: the flood always broadcasts at the full
// bandwidth) stores only the value; every non-silent write has width >= 1,
// so a silent slot (width 0) always takes the full path.
class SoaBroadcasts {
 public:
  void reset(std::size_t n, unsigned bandwidth);

  std::size_t size() const { return n_; }
  unsigned bandwidth() const { return bandwidth_; }

  // Mirrors Message::bits plus an eager bandwidth check: len must be in
  // [1, 64], value must fit, len <= bandwidth (BandwidthViolationError
  // naming v; the engine adds the instance digest and the round).
  void set_bits(VertexId v, std::uint64_t value, unsigned len);
  void set_silent(VertexId v);

  // Writes m without the bandwidth check: the engine checks the post-fault
  // wire instead. The per-vertex adapter and the fault pass write here.
  void set_message(VertexId v, const Message& m);

  bool is_silent(VertexId v) const { return (silent_[v / 64] >> (v % 64)) & 1; }
  // Mirrors Message::value(): throws on a silent slot, exactly as a
  // VertexAlgorithm reading a silent inbox entry would.
  std::uint64_t value(VertexId v) const;
  unsigned num_bits(VertexId v) const { return widths_[v]; }
  Message message(VertexId v) const;

  // Raw columns for reductions and digest walks.
  std::span<const std::uint64_t> values() const { return values_; }
  std::span<const std::uint8_t> widths() const { return widths_; }
  std::span<const std::uint64_t> silent_words() const { return silent_; }

  // Sum of widths over non-silent slots; O(1), maintained on every write.
  std::uint64_t round_bits() const { return bits_sum_; }

  // Number of slots wider than the bandwidth; O(1), maintained on every
  // write. Nonzero only after set_message.
  std::size_t oversized() const { return oversized_; }

  std::size_t buffer_bytes() const;

 private:
  void store(VertexId v, std::uint64_t value, unsigned len);

  std::size_t n_ = 0;
  unsigned bandwidth_ = 1;
  std::uint64_t bits_sum_ = 0;
  std::size_t oversized_ = 0;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint8_t> widths_;
  std::vector<std::uint64_t> silent_;  // packed, bit v = silent
};

// A whole-graph protocol. One object owns every vertex's state; the engine
// alternates broadcast/receive once per round.
class SoaProgram {
 public:
  virtual ~SoaProgram() = default;

  // `faults` is the run's injector, or null for a fault-free run. Non-null
  // means fault injection may rewrite the wire between broadcast() and
  // receive(): the program must then take its dense path (no frontier
  // shortcuts, which assume the wire carries what was written), and may
  // read crash state from it. `threads` is the reduction width; results
  // must be bit-identical for every value (use the common/bitset_reduce.h
  // ops).
  virtual void init(const InstanceView& view, unsigned bandwidth, const FaultInjector* faults,
                    unsigned threads) = 0;

  // Fill/refresh this round's broadcasts. The outbox persists across
  // rounds; only changed slots need rewriting (in exact mode, rewrite all).
  virtual void broadcast(unsigned round, SoaBroadcasts& out) = 0;

  // Consume the round's wire (post fault injection).
  virtual void receive(unsigned round, const SoaBroadcasts& in) = 0;

  virtual bool all_finished() const = 0;

  // AND over the per-vertex decisions, valid once finished or at the round
  // limit — the same contract as VertexAlgorithm::decide.
  virtual bool decision() const = 0;

  virtual std::uint64_t label_of(VertexId v) const = 0;

  // Current heap footprint of the program's state, for the O(n) memory
  // accounting the scale tests assert.
  virtual std::size_t state_bytes() const = 0;
};

struct SoaRunOptions {
  const FaultPlan* faults = nullptr;  // must outlive the run
  unsigned attempt = 0;               // forwarded to the FaultInjector
  std::uint64_t deadline_ns = 0;      // watchdog; 0 disables
  bool require_all_finished = false;  // throw RoundLimitError at the cap
  bool digest_transcript = false;     // stream the round-major digest (O(n)/round)
  unsigned threads = 1;               // reduction width; 0 = default_parallel_threads
};

struct SoaRunResult {
  unsigned rounds_executed = 0;
  bool all_finished = false;
  bool decision = false;
  std::uint64_t total_bits_broadcast = 0;
  // Canonical round-major transcript digest; 0 unless digest_transcript.
  std::uint64_t transcript_digest = 0;
  // FNV-1a over (n, label_of(0), ..., label_of(n-1)) — the scale-run
  // outcome when transcript digesting is off. For the flood the labels are
  // the component minima, so it sees the outcome, not the rounds.
  std::uint64_t labels_digest = 0;
  std::vector<AppliedFault> faults_applied;
  std::vector<VertexId> crashed_vertices;
  RunStats stats;
};

class SoaRoundEngine {
 public:
  SoaRoundEngine() = default;
  SoaRoundEngine(const SoaRoundEngine&) = delete;
  SoaRoundEngine& operator=(const SoaRoundEngine&) = delete;

  SoaRunResult run(const InstanceView& view, unsigned bandwidth, SoaProgram& program,
                   unsigned max_rounds, const SoaRunOptions& options = {});

  const RunStats& last_stats() const { return stats_; }

  // True while a run is executing on this engine.
  bool running() const { return running_; }

  // Engine buffer footprint (the outbox columns); the program's state is
  // accounted separately via SoaProgram::state_bytes.
  std::size_t buffer_bytes() const { return outbox_.buffer_bytes(); }

 private:
  SoaBroadcasts outbox_;
  std::vector<std::pair<VertexId, Message>> fault_undo_;
  RunStats stats_;
  bool running_ = false;
};

}  // namespace bcclb
