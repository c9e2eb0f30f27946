// bccr — the shard-routing front end behind `bcclb route`.
//
// A RouterServer speaks BCS1 on both sides: clients dial it exactly like a
// single `bcclb serve` daemon, and it fans their requests out across N
// backends by rendezvous-hashing each request's FNV-1a content key
// (BackendPool::rank). Because the cache key *is* the routing key, every
// distinct query has one home shard — the cluster's aggregate cache behaves
// like one big cache with no duplicated entries.
//
// Data path per request (route()):
//
//   rank(key) -> walk ids the pool admits() -> attempt each in turn
//     attempt: forward frame, await answer within attempt_deadline_ms,
//              digest-verify OK artifacts (fnv1a(artifact) == digest)
//     decoded answer  -> record_success, relay to the client verbatim
//                        (QueueFull/Draining pass through: the shard is
//                        alive, its backpressure is the client's business)
//     transport error, timeout, or bad digest
//                     -> record_failure (feeds the circuit breaker),
//                        fail over to the next-ranked live shard
//   nothing left      -> typed kNoBackend error frame, never a hang
//
// Failover is sound because every bccd query is a pure function of its
// request — re-sending to another shard can only produce the byte-identical
// artifact (the digest check enforces exactly that).
//
// Optional hedging (hedge_delay_ms > 0): when the primary shard has not
// answered within the (seeded-jittered) hedge delay, the same request is
// fired at the next-ranked live shard on a fresh connection; the first
// digest-valid answer wins and the loser is abandoned (its thread is joined
// at connection close). Idempotency makes the duplicate execution harmless.
//
// Threading: unlike bccd's poll loop, the router is thread-per-connection —
// each connection blocks on its own backend round trips, so one slow shard
// never stalls another client's traffic and the code stays sequential.
// Each connection thread serves one FrameConn (serve/conn.h, shared with
// bccd) through reply(). The accept loop polls at 100 ms so drain (SIGTERM
// via drain_flag, or begin_drain()) is noticed promptly: stop accepting,
// linger kDrainLingerNs answering Draining to late frames, join every
// connection, return stats.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/backend_pool.h"
#include "serve/conn.h"
#include "serve/wire.h"

namespace bcclb {

struct RouterConfig {
  // Front-side endpoint, same convention as ServeConfig: non-empty unix_path
  // wins, else TCP on 127.0.0.1:tcp_port (0 = kernel-assigned).
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  // The shard fleet. Must be non-empty.
  std::vector<BackendEndpoint> backends;
  // Circuit breaker + active probe knobs (shared seed also jitters hedges).
  BackendPolicy health;
  std::size_t max_connections = 256;
  // Request payload cap, mirroring the backends' own limit.
  std::size_t max_request_bytes = 64;
  // Per-backend-attempt round-trip budget. Must be > 0: an unbounded wait on
  // a wedged shard would defeat failover.
  std::uint64_t attempt_deadline_ms = 10000;
  // 0 disables hedging; otherwise the tail-latency trigger described above.
  std::uint64_t hedge_delay_ms = 0;
  // Polled by the accept loop; non-zero triggers drain (CLI signal flag).
  const volatile std::sig_atomic_t* drain_flag = nullptr;
};

struct RouterStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections
  std::uint64_t requests_routed = 0;       // data-path requests (excl. stats probes)
  std::uint64_t responses_ok = 0;          // OK relayed to clients
  std::uint64_t responses_error = 0;       // non-OK relayed (incl. NoBackend)
  std::uint64_t failovers = 0;             // attempts sent past the first candidate
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;            // hedge answered before the primary
  std::uint64_t digest_rejected = 0;       // OK answers dropped: digest mismatch
  std::uint64_t no_backend = 0;            // requests that exhausted every shard
  std::uint64_t stats_probes = 0;
  std::uint64_t protocol_violations = 0;
  std::uint64_t too_large = 0;
  std::uint64_t draining_rejected = 0;
  std::uint64_t unsent_pauses = 0;         // inputs paused at FrameConn::kMaxUnsentBytes
  std::vector<BackendSnapshot> backends;
};

class RouterServer {
 public:
  explicit RouterServer(RouterConfig config);
  ~RouterServer();

  RouterServer(const RouterServer&) = delete;
  RouterServer& operator=(const RouterServer&) = delete;

  // Creates, binds and listens on the front endpoint (the same Listener as
  // ServeServer). Throws ServeError.
  void bind();

  // Routes until drained; returns final stats (including per-backend circuit
  // counters). Call bind() first. Starts/stops the pool's probe thread.
  RouterStats run();

  // Thread-safe drain trigger, equivalent to the signal path.
  void begin_drain();

  std::uint16_t tcp_port() const { return listener_.tcp_port(); }
  std::string endpoint() const { return listener_.endpoint(); }

  // The stats/health artifact (what a kStats request to the router returns):
  // router counters plus one line per backend with its circuit state.
  std::string render_stats() const;

  BackendPool& pool() { return pool_; }

 private:
  struct RouteResult {
    std::string frame;  // the response frame to relay
    bool ok = false;    // frame carries StatusCode::kOk
  };
  // Per-connection routing state (cached backend connections, stray hedge
  // threads) — defined in router.cpp.
  struct ConnCtx;

  void conn_main(int fd);
  // The FrameHandler of one connection: stats, Draining, or the routed answer.
  std::string reply(const FrameHeader& header, std::string_view payload, ConnCtx& ctx);
  RouteResult route(const Request& request, std::uint64_t key, ConnCtx& ctx);
  // One attempt against shard `id`. ctx != nullptr uses the connection cache;
  // nullptr dials fresh (hedge threads must not share cached connections).
  // nullopt = transport failure / timeout / bad digest (already recorded).
  std::optional<RouteResult> attempt_backend(const Request& request, std::size_t id,
                                             ConnCtx* ctx);
  // The hedged first attempt: primary in a thread, backup fired after the
  // jittered hedge delay. Returns {winner, candidates consumed (1 or 2)}.
  std::pair<std::optional<RouteResult>, std::size_t> attempt_hedged(
      const Request& request, std::uint64_t key, std::size_t primary_id, std::size_t backup_id,
      ConnCtx& ctx);
  bool drain_now() const;

  RouterConfig config_;
  BackendPool pool_;

  Listener listener_;

  std::atomic<bool> drain_requested_{false};
  std::atomic<std::size_t> active_connections_{0};

  std::atomic<std::uint64_t> connections_accepted_{0}, connections_rejected_{0},
      requests_routed_{0}, responses_ok_{0}, responses_error_{0}, failovers_{0},
      hedges_launched_{0}, hedges_won_{0}, digest_rejected_{0}, no_backend_{0},
      stats_probes_{0}, draining_rejected_{0};
  FramingCounters framing_;
};

}  // namespace bcclb
