// The per-vertex BCC(b) engine: VertexAlgorithm objects on the one round
// loop.
//
// Per Section 1.2: in each round every vertex receives the previous round's
// broadcasts on its ports, computes, and broadcasts at most b bits (or stays
// silent). RoundEngine is the entry point for algorithms written one vertex
// at a time. It runs no loop of its own: a private SoaProgram adapter owns
// the n VertexAlgorithm objects, the per-instance KT-1 knowledge tables
// (computed once and shared across all n vertices as LocalView spans), the
// per-vertex coin streams and a flattened per-wiring peer table, so each
// vertex's inbox is a gather by index from the shared outbox. The adapter
// stages the Transcript from the post-fault wire, and RoundEngine::run
// hands it to its SoaRoundEngine (soa_engine.h), which owns the round
// skeleton, the watchdog, fault injection and the bandwidth check. All
// buffers are sized once and reused across rounds *and* across runs; the
// steady-state round loop performs no heap allocation.
//
// One engine serves one thread; BatchRunner gives each worker its own.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bcc/faults.h"
#include "bcc/instance.h"
#include "bcc/message.h"
#include "bcc/soa_engine.h"
#include "bcc/transcript.h"

namespace bcclb {

// A vertex-local algorithm. The driver calls init once, then alternates
// broadcast(t) / receive(t, inbox) for t = 0, 1, ...; inbox[p] is the round-t
// broadcast of the peer behind port p. Once every vertex reports finished(),
// the run stops and outputs are read.
class VertexAlgorithm {
 public:
  virtual ~VertexAlgorithm() = default;

  virtual void init(const LocalView& view) = 0;

  virtual Message broadcast(unsigned round) = 0;

  virtual void receive(unsigned round, std::span<const Message> inbox) = 0;

  // True when this vertex is ready to output; the system stops when all are.
  virtual bool finished() const = 0;

  // Decision-problem output (YES = true). Valid once finished, or when the
  // driver hits its round limit.
  virtual bool decide() const = 0;

  // ConnectedComponents-style output; default says the algorithm computes
  // no label.
  virtual std::optional<std::uint64_t> component_label() const { return std::nullopt; }
};

// Factories must be safe to invoke concurrently from several threads (each
// call returns an independent vertex); every factory in the repository is.
using AlgorithmFactory = std::function<std::unique_ptr<VertexAlgorithm>()>;

// How one run obtains its randomness. Public coins are the model's shared
// string r (every vertex reads the same stream); the private-coin model
// derives an independent stream per vertex ID from `private_seed`.
struct CoinSpec {
  const PublicCoins* shared = nullptr;
  bool use_private = false;
  std::uint64_t private_seed = 0;
  std::size_t private_bits = 0;

  static CoinSpec none() { return {}; }
  static CoinSpec public_coins(const PublicCoins* coins) { return {coins, false, 0, 0}; }
  static CoinSpec private_coins(std::uint64_t seed, std::size_t bits_per_vertex = 4096) {
    return {nullptr, true, seed, bits_per_vertex};
  }
};

// Everything beyond the positional arguments one run can be configured
// with. Default-constructed options reproduce the plain run() overload
// bit-for-bit: no faults, no watchdog, round-limit exhaustion is reported in
// the result rather than thrown.
struct RunOptions {
  CoinSpec coins{};

  // Fault schedule; nullptr (or an empty plan) runs fault-free. The plan
  // must outlive the run.
  const FaultPlan* faults = nullptr;

  // Retry attempt index, forwarded to the FaultInjector so transient plans
  // fire on attempt 0 only (see FaultPlan::set_transient).
  unsigned attempt = 0;

  // Watchdog: wall-clock budget for this run in nanoseconds; 0 disables.
  // Checked once per round (a run cannot be preempted mid-callback), throws
  // JobTimeoutError. Timing-dependent by nature — only the *timeout* is
  // nondeterministic, never the transcript of a run that completes.
  std::uint64_t deadline_ns = 0;

  // Strict mode: throw RoundLimitError when max_rounds elapse with a
  // (non-crashed) vertex still unfinished, instead of returning
  // all_finished = false.
  bool require_all_finished = false;
};

struct RunResult {
  unsigned rounds_executed = 0;
  bool all_finished = false;
  bool decision = false;  // AND over vertices
  std::vector<bool> vertex_decisions;
  std::vector<std::optional<std::uint64_t>> labels;
  Transcript transcript{0, 0};
  std::uint64_t total_bits_broadcast = 0;
  RunStats stats;
  // Fault-injection audit trail: every event the injector applied, in round
  // order, plus the vertices the plan crash-stopped (ascending). Both empty
  // for fault-free runs.
  std::vector<AppliedFault> faults_applied;
  std::vector<VertexId> crashed_vertices;
  // Final vertex states, for algorithms with richer outputs than a decision
  // (e.g. the MST edge set). Move-only.
  std::vector<std::unique_ptr<VertexAlgorithm>> agents;
  // Backing storage of the agents' KT-1 view spans; keeps them valid after
  // the engine moves on to another instance.
  std::shared_ptr<const Kt1ViewData> kt1_view;
};

class RoundEngine {
 public:
  RoundEngine() = default;

  // Non-copyable, non-movable: agents from in-flight runs hold no pointers
  // into the engine, but keeping it pinned makes buffer reuse reasoning
  // trivial.
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  // Pre-sizes the adapter's flat buffers for instances up to (n,
  // expected_rounds). Optional: run() grows on demand.
  void reserve(std::size_t n, unsigned expected_rounds);

  // Runs up to max_rounds rounds (stopping early once every vertex reports
  // finished). Throws if any broadcast on the wire exceeds the bandwidth;
  // the engine is immediately reusable after a throw.
  RunResult run(const BccInstance& instance, unsigned bandwidth,
                const AlgorithmFactory& factory, unsigned max_rounds,
                const CoinSpec& coins = {});

  // Full-control overload: fault injection, watchdog deadline and strict
  // round-limit semantics (see RunOptions). Default options make this
  // bit-identical to the overload above.
  RunResult run(const BccInstance& instance, unsigned bandwidth,
                const AlgorithmFactory& factory, unsigned max_rounds,
                const RunOptions& options);

  // Stats of the most recent completed run.
  const RunStats& last_stats() const { return loop_.last_stats(); }

  // Current footprint of the reusable buffers, in bytes.
  std::size_t buffer_bytes() const { return loop_.buffer_bytes() + program_.state_bytes(); }

  // True while a run is executing on this engine (reentrancy guard for
  // callers that share a thread-local engine).
  bool running() const { return loop_.running(); }

 private:
  // The adapter: a whole-graph program whose state is one VertexAlgorithm
  // per vertex. A crash-stopped vertex (read from the run's FaultInjector)
  // counts as finished — it will never broadcast again, so waiting on it
  // would only burn rounds to the cap.
  class VertexProgram final : public SoaProgram {
   public:
    // Per-run inputs, set by RoundEngine::run before the loop starts.
    const AlgorithmFactory* factory = nullptr;
    CoinSpec coins{};

    void reserve(std::size_t n, unsigned expected_rounds);
    void init(const InstanceView& view, unsigned bandwidth, const FaultInjector* faults,
              unsigned threads) override;
    void broadcast(unsigned round, SoaBroadcasts& out) override;
    void receive(unsigned round, const SoaBroadcasts& in) override;
    bool all_finished() const override;
    bool decision() const override;
    std::uint64_t label_of(VertexId v) const override;
    std::size_t state_bytes() const override;

    // Moves the finished run's per-vertex outputs into `result`: the
    // transcript of the delivered wire, decisions, labels, agents and the
    // KT-1 view backing them.
    void collect(RunResult& result);

   private:
    const FaultInjector* faults_ = nullptr;
    std::size_t n_ = 0;
    unsigned rounds_done_ = 0;  // receive() calls so far = the current round
    // Reused across runs; cleared, never shrunk. The transcript staging is
    // flat value/width columns plus packed silence bitsets appended once per
    // round (9.125 B per message instead of sizeof(Message) = 24). Only the
    // inbox is an array of Messages — it is the span VertexAlgorithm reads.
    std::vector<Message> inbox_;                // n - 1 entries, gather target
    std::vector<std::uint32_t> peer_flat_;      // wiring, [v * (n-1) + p] = peer
    std::vector<std::uint64_t> staged_values_;  // [t * n + v], grows per round
    std::vector<std::uint8_t> staged_widths_;
    std::vector<std::uint64_t> staged_silent_;  // per round: ceil(n/64) words
    std::vector<std::unique_ptr<VertexAlgorithm>> vertices_;
    std::vector<PublicCoins> private_streams_;
    std::shared_ptr<const Kt1ViewData> kt1_;
  };

  SoaRoundEngine loop_;
  VertexProgram program_;
};

}  // namespace bcclb
