// Health-checked backend set for the bccd shard router (`bcclb route`).
//
// A BackendPool owns the fleet's view of N `bcclb serve` daemons:
//
//   * **Rendezvous (highest-random-weight) hashing.** Every backend gets a
//     deterministic score for a request's FNV-1a content key —
//     rendezvous_score(key, ordinal), a SplitMix64-style mix — and rank()
//     returns the backends ordered by descending score. The top-ranked live
//     backend owns the key; failover simply walks down the same ranking, so
//     removing one backend reshuffles only that backend's keys (the property
//     that keeps the cluster-wide cache hit rate intact through a crash).
//
//   * **A per-backend circuit breaker.** Each backend runs the classic
//     three-state machine, driven by both passive accounting from the data
//     path and seeded active probes:
//
//       Closed    --fail_threshold consecutive failures-->   Open
//       Open      --open_cooldown elapses (tick)-->          HalfOpen
//       HalfOpen  --any success-->                           Closed
//       HalfOpen  --any failure-->                           Open (again)
//
//     Open backends are skipped by the router (admits() == false), so a dead
//     shard costs its fail_threshold discovery failures once, not a timeout
//     per request. HalfOpen re-admits real traffic alongside the probe: the
//     first success — either — closes the circuit.
//
//   * **Seeded active probes.** A background thread sends a kStats round
//     trip to every non-Open backend on a jittered cadence (jitter is a pure
//     function of (seed, tick), never wall-clock randomness), so a shard
//     that dies while idle is discovered without waiting for a request to
//     sacrifice itself, and a recovered shard is re-admitted even under zero
//     traffic.
//
// All state transitions take explicit now_ns timestamps so tests drive the
// machine deterministically without sleeping; the probe thread and router
// pass steady_now_ns() (serve/conn.h).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bcclb {

enum class BackendState : std::uint8_t {
  kClosed = 0,    // healthy: full traffic
  kOpen = 1,      // circuit open: skipped by the router until cooldown
  kHalfOpen = 2,  // probation: probe + real traffic decide re-admission
};

const char* backend_state_name(BackendState state);

// One backend endpoint, same convention as ServeConfig: a non-empty
// unix_path wins, else TCP on 127.0.0.1:tcp_port.
struct BackendEndpoint {
  std::string unix_path;
  std::uint16_t tcp_port = 0;

  std::string to_string() const;
  friend bool operator==(const BackendEndpoint&, const BackendEndpoint&) = default;
};

// Parses "unix:<path>" or "tcp:<port>" (the `bcclb route --backend` syntax).
// Returns nullopt on anything else — the CLI turns that into usage.
std::optional<BackendEndpoint> parse_backend_endpoint(std::string_view text);

// Circuit-breaker and probe knobs.
struct BackendPolicy {
  // Consecutive data-path/probe failures that open the circuit.
  unsigned fail_threshold = 3;
  // How long an Open circuit rests before a HalfOpen probation.
  std::uint64_t open_cooldown_ms = 500;
  // Active probe cadence (0 disables the probe thread entirely).
  std::uint64_t probe_interval_ms = 100;
  // Per-probe round-trip budget.
  std::uint64_t probe_deadline_ms = 2000;
  // Jitter seed for the probe schedule: the k-th inter-probe sleep is a pure
  // function of (seed, k), so two routers with different seeds never probe
  // in lockstep, yet one router's schedule replays exactly.
  std::uint64_t seed = 0;
};

struct BackendCounters {
  std::uint64_t routed = 0;        // data-path attempts sent (incl. hedges)
  std::uint64_t ok = 0;            // data-path answers (any decoded status)
  std::uint64_t failures = 0;      // transport failures/timeouts/bad digests
  std::uint64_t probes_ok = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t circuit_opened = 0;     // Closed/HalfOpen -> Open transitions
  std::uint64_t circuit_half_open = 0;  // Open -> HalfOpen probations
  std::uint64_t circuit_closed = 0;     // HalfOpen/Open -> Closed re-admissions
};

struct BackendSnapshot {
  BackendEndpoint endpoint;
  BackendState state = BackendState::kClosed;
  BackendCounters counters;
};

// The rendezvous score of `backend_ordinal` for `key`: a SplitMix64-style
// finalizer over both, so scores are uniform, uncorrelated across backends,
// and identical on every host. Exposed for tests and for callers that want
// to reason about key ownership.
std::uint64_t rendezvous_score(std::uint64_t key, std::uint64_t backend_ordinal);

class BackendPool {
 public:
  BackendPool(std::vector<BackendEndpoint> endpoints, BackendPolicy policy);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  std::size_t size() const { return endpoints_.size(); }
  const BackendEndpoint& endpoint(std::size_t id) const { return endpoints_[id]; }
  const BackendPolicy& policy() const { return policy_; }

  // All backend ids ordered by descending rendezvous score for `key` (ties
  // broken by id). Pure: health plays no part — the router filters through
  // admits() so that the ranking, and therefore key ownership, is stable.
  std::vector<std::size_t> rank(std::uint64_t key) const;

  // Whether the router may send this backend traffic (state != Open).
  bool admits(std::size_t id) const;
  BackendState state(std::size_t id) const;

  // Passive accounting from the data path (and from probes, which funnel
  // through the same transitions). A success resets the consecutive-failure
  // count and closes a HalfOpen/Open circuit; a failure counts toward
  // fail_threshold and re-opens a HalfOpen circuit immediately.
  void record_success(std::size_t id);
  void record_failure(std::size_t id, std::uint64_t now_ns);
  void count_routed(std::size_t id);

  // Time-driven transition: Open -> HalfOpen once the cooldown has elapsed.
  // Returns true when the transition fired. The probe thread calls this
  // every pass; tests call it with synthetic clocks.
  bool tick(std::size_t id, std::uint64_t now_ns);

  // One full probe pass at `now_ns`: tick every backend, then send a kStats
  // round trip to every non-Open backend, recording the outcome. Called by
  // the probe thread; callable directly from tests (it blocks on real I/O).
  void probe_once(std::uint64_t now_ns);

  // Probe thread lifecycle. start_probing is a no-op when
  // probe_interval_ms == 0; stop_probing is idempotent and joins.
  void start_probing();
  void stop_probing();

  std::vector<BackendSnapshot> snapshot() const;

 private:
  struct Backend {
    BackendState state = BackendState::kClosed;
    unsigned consecutive_failures = 0;
    std::uint64_t opened_at_ns = 0;
    BackendCounters counters;
  };

  void record_failure_locked(Backend& backend, std::uint64_t now_ns);
  void record_success_locked(Backend& backend);
  void probe_main();

  const std::vector<BackendEndpoint> endpoints_;
  const BackendPolicy policy_;

  mutable std::mutex mutex_;  // guards backends_
  std::vector<Backend> backends_;

  std::mutex probe_mutex_;  // guards probe_stop_ handshake
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;
  std::thread probe_thread_;
};

}  // namespace bcclb
