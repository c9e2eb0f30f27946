// bccd — the long-lived serving daemon behind `bcclb serve`.
//
// Architecture (DESIGN.md §6):
//
//   I/O thread (run())              scheduler thread
//   ─────────────────               ────────────────
//   poll() accept/read/write        waits on the admission queue
//   parse frames                    drains it in FIFO batches
//   memory-tier hit (digest         cache lookup (digest re-verified),
//     re-verified) answered inline    disk-tier reads
//   else admit -> bounded queue ->  misses coalesced by content key and
//   overload -> QueueFull frame       fanned out through BatchRunner
//   stats probe served inline
//   drain: stop accepting      <-   responses via completion queue + wake pipe
//
// The admission queue is the backpressure boundary: when it is full the I/O
// thread answers with a typed QueueFull frame immediately — the connection
// stays open, the client decides whether to retry. Draining (SIGINT/SIGTERM
// via the drain flag, or begin_drain()) stops accepting connections, rejects
// new requests with Draining frames, finishes everything already admitted,
// and returns final stats; the CLI exits 0. Once nothing admitted is left,
// each connection gets at most kDrainLingerNs to take its unsent bytes.
//
// Responses on one connection are delivered in request order. The I/O thread
// answers a memory-tier hit itself only while the connection's `queued`
// count (requests admitted to the scheduler whose response has not yet
// reached the connection) is zero; a frame behind a queued request takes the
// scheduler path too. The out-of-band exceptions are the stats probe and the
// typed rejections (QueueFull, Draining, ProtocolViolation, RequestTooLarge),
// all answered at once so health checks and backpressure work even when the
// queue is saturated.
//
// Sockets, framing, the unsent-bytes bound and the drain linger are the
// connection layer shared with bccr (serve/conn.h): a Listener accepts, and
// each connection is a FrameConn whose handler is handle_frame().
#pragma once

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bcc/batch_runner.h"
#include "serve/artifact_cache.h"
#include "serve/chaos.h"
#include "serve/conn.h"
#include "serve/disk_store.h"
#include "serve/wire.h"

namespace bcclb {

struct ServeConfig {
  // Endpoint: a non-empty unix_path serves on a Unix-domain socket;
  // otherwise TCP on 127.0.0.1:tcp_port (0 = kernel-assigned; read it back
  // with tcp_port() after bind()).
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  // Worker width for artifact builds (0 = default_parallel_threads()).
  unsigned threads = 0;
  // Admission queue bound — the overload knob.
  std::size_t queue_capacity = 128;
  // Request payload cap; larger frames get a RequestTooLarge frame and the
  // payload is skipped (framing survives). Every defined request fits in 16.
  std::size_t max_request_bytes = 64;
  std::size_t max_connections = 256;
  // Artifact cache budget; 0 defers to BCCLB_MEM_BUDGET, then 64 MiB.
  std::uint64_t cache_budget_bytes = 0;
  // Durable on-disk artifact tier (tier 2 behind the in-memory cache). Empty
  // disables it; non-empty makes every computed artifact crash-durable and
  // warms restarts with byte-identical (digest-proven) responses.
  std::string store_dir;
  // Deterministic chaos schedule (BCCLB_SERVE_FAULTS via the CLI, or set
  // directly by tests). Default-constructed = no faults.
  ServeFaultPlan faults;
  // Polled by the I/O loop (the CLI points this at its SIGINT/SIGTERM flag);
  // non-zero triggers the drain sequence.
  const volatile std::sig_atomic_t* drain_flag = nullptr;
  // Test hook: invoked by the scheduler thread before each drain batch.
  // Tests block in it to deterministically fill the admission queue.
  std::function<void()> test_hold;
};

struct ServeStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections
  std::uint64_t requests_admitted = 0;  // inline memory hits plus queued requests
  std::uint64_t responses_ok = 0;
  std::uint64_t compute_failed = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t too_large = 0;
  std::uint64_t protocol_violations = 0;
  std::uint64_t draining_rejected = 0;
  std::uint64_t unsent_pauses = 0;  // inputs paused at FrameConn::kMaxUnsentBytes
  std::uint64_t stats_probes = 0;
  std::uint64_t coalesced = 0;  // requests served by sharing a concurrent build
  CacheStats cache;
  DiskStoreStats disk;          // zeros when the disk tier is disabled
  std::uint64_t chaos_stalls = 0;
  std::uint64_t chaos_corrupted_responses = 0;
  std::uint64_t chaos_corrupted_disk = 0;
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Creates, binds and listens on the configured endpoint. Throws ServeError
  // on failure (path in use, port taken, ...).
  void bind();

  // Serves until drained; returns the final stats. Call bind() first.
  ServeStats run();

  // Thread-safe drain trigger, equivalent to the signal path.
  void begin_drain();

  // Resolved TCP port (after bind(); meaningful in TCP mode).
  std::uint16_t tcp_port() const { return listener_.tcp_port(); }

  // Human-readable endpoint, for logs.
  std::string endpoint() const { return listener_.endpoint(); }

  // The stats/health artifact (also what a kStats request returns).
  std::string render_stats() const;

  // The durable tier, or nullptr when disabled (tests corrupt entries
  // through it to prove the quarantine path end-to-end).
  DiskStore* disk_store() { return disk_.get(); }

 private:
  struct Connection {
    explicit Connection(int fd) : io(fd) {}
    FrameConn io;
    std::size_t queued = 0;  // admitted requests whose response is not queued yet
  };

  struct PendingRequest {
    std::uint64_t conn_id = 0;
    Request request;
    std::uint64_t key = 0;
  };

  struct ReadyResponse {
    std::uint64_t conn_id = 0;
    std::string frame;
  };

  void scheduler_main();
  void process_batch(std::vector<PendingRequest>& batch);
  // The FrameHandler of connection `conn_id`: the response frame, or an
  // empty string when the request was admitted to the scheduler.
  std::string handle_frame(std::uint64_t conn_id, Connection& conn, const FrameHeader& header,
                           std::string_view payload);
  std::string ok_frame(RequestType type, CacheSource source, const std::string& artifact);
  void crash_point();
  void push_response(std::uint64_t conn_id, std::string frame);
  void drain_completions();
  void accept_ready();
  void enter_drain();

  ServeConfig config_;
  BatchRunner runner_;
  ArtifactCache cache_;
  std::unique_ptr<DiskStore> disk_;  // tier 2; null when store_dir is empty
  ServeFaultInjector chaos_;

  Listener listener_;
  int wake_r_ = -1, wake_w_ = -1;

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, Connection> conns_;

  std::mutex mutex_;  // guards queue_, completed_, draining_ handshake
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  std::vector<ReadyResponse> completed_;
  bool draining_ = false;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> scheduler_done_{false};
  std::atomic<std::size_t> in_flight_{0};
  std::thread scheduler_;

  // Stats counters: written by their owning thread, read via render_stats()
  // from the I/O thread — each is an independent atomic tally.
  std::atomic<std::uint64_t> connections_accepted_{0}, connections_rejected_{0},
      requests_admitted_{0}, responses_ok_{0}, compute_failed_{0}, queue_full_{0},
      draining_rejected_{0}, stats_probes_{0}, coalesced_{0};
  FramingCounters framing_;
};

}  // namespace bcclb
