#include "serve/router.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/client.h"

namespace bcclb {

namespace {

ServeClient dial(const BackendEndpoint& endpoint) {
  return endpoint.unix_path.empty() ? ServeClient::connect_tcp(endpoint.tcp_port)
                                    : ServeClient::connect_unix(endpoint.unix_path);
}

}  // namespace

struct RouterServer::ConnCtx {
  // Cached data-path connection per backend id; dropped on any transport
  // failure so the next attempt redials a possibly-restarted daemon.
  std::vector<std::unique_ptr<ServeClient>> clients;
  // Abandoned hedge losers — still blocked on a slow shard when the other
  // attempt won. Joined when the connection closes (their round trips are
  // bounded by attempt_deadline_ms, so the join is too).
  std::vector<std::thread> strays;
  // Per-connection counter feeding the seeded hedge-delay jitter.
  std::uint64_t hedge_tick = 0;
};

RouterServer::RouterServer(RouterConfig config)
    : config_(std::move(config)), pool_(config_.backends, config_.health) {
  if (config_.backends.empty()) throw ServeError("route: no backends configured");
  if (config_.attempt_deadline_ms == 0) {
    throw ServeError("route: attempt_deadline_ms must be > 0 (failover needs bounded attempts)");
  }
}

RouterServer::~RouterServer() { pool_.stop_probing(); }

void RouterServer::bind() { listener_.bind(config_.unix_path, config_.tcp_port, "route"); }

void RouterServer::begin_drain() { drain_requested_.store(true, std::memory_order_relaxed); }

bool RouterServer::drain_now() const {
  if (drain_requested_.load(std::memory_order_relaxed)) return true;
  return config_.drain_flag != nullptr && *config_.drain_flag != 0;
}

std::string RouterServer::render_stats() const {
  std::string out = "bccr stats\n";
  const auto line = [&out](const char* name, std::uint64_t v) {
    out += name;
    out += " = ";
    out += std::to_string(v);
    out += "\n";
  };
  out += std::string("draining = ") + (drain_now() ? "yes" : "no") + "\n";
  line("backends", pool_.size());
  line("connections accepted", connections_accepted_.load(std::memory_order_relaxed));
  line("connections rejected", connections_rejected_.load(std::memory_order_relaxed));
  line("requests routed", requests_routed_.load(std::memory_order_relaxed));
  line("responses ok", responses_ok_.load(std::memory_order_relaxed));
  line("responses error", responses_error_.load(std::memory_order_relaxed));
  line("failovers", failovers_.load(std::memory_order_relaxed));
  line("hedges launched", hedges_launched_.load(std::memory_order_relaxed));
  line("hedges won", hedges_won_.load(std::memory_order_relaxed));
  line("digest rejected", digest_rejected_.load(std::memory_order_relaxed));
  line("no backend", no_backend_.load(std::memory_order_relaxed));
  line("stats probes", stats_probes_.load(std::memory_order_relaxed));
  line("protocol violations", framing_.protocol_violations.load(std::memory_order_relaxed));
  line("rejected too-large", framing_.too_large.load(std::memory_order_relaxed));
  line("rejected draining", draining_rejected_.load(std::memory_order_relaxed));
  line("unsent-bound pauses", framing_.unsent_pauses.load(std::memory_order_relaxed));
  const std::vector<BackendSnapshot> backends = pool_.snapshot();
  for (std::size_t id = 0; id < backends.size(); ++id) {
    const BackendSnapshot& b = backends[id];
    out += "backend " + std::to_string(id) + " " + b.endpoint.to_string() +
           " state=" + backend_state_name(b.state) +
           " routed=" + std::to_string(b.counters.routed) +
           " ok=" + std::to_string(b.counters.ok) +
           " failures=" + std::to_string(b.counters.failures) +
           " probes-ok=" + std::to_string(b.counters.probes_ok) +
           " probes-failed=" + std::to_string(b.counters.probes_failed) +
           " opened=" + std::to_string(b.counters.circuit_opened) +
           " half-open=" + std::to_string(b.counters.circuit_half_open) +
           " readmitted=" + std::to_string(b.counters.circuit_closed) + "\n";
  }
  return out;
}

std::optional<RouterServer::RouteResult> RouterServer::attempt_backend(const Request& request,
                                                                       std::size_t id,
                                                                       ConnCtx* ctx) {
  pool_.count_routed(id);
  try {
    std::optional<ServeClient> fresh;
    ServeClient* client = nullptr;
    if (ctx != nullptr) {
      std::unique_ptr<ServeClient>& slot = ctx->clients[id];
      if (slot == nullptr) slot = std::make_unique<ServeClient>(dial(pool_.endpoint(id)));
      client = slot.get();
    } else {
      fresh.emplace(dial(pool_.endpoint(id)));
      client = &*fresh;
    }
    ClientRetryPolicy policy;
    policy.max_retries = 0;  // retries across shards are route()'s job
    policy.deadline_ms = config_.attempt_deadline_ms;
    policy.retry_queue_full = false;
    const RetryOutcome out = client->request_with_retry(request, policy);
    const Response& resp = out.response;
    if (resp.status == StatusCode::kOk) {
      if (fnv1a(resp.artifact) != resp.digest) {
        // A corrupt artifact must never be relayed: treat the shard as
        // failing and let failover fetch the byte-identical answer elsewhere.
        digest_rejected_.fetch_add(1, std::memory_order_relaxed);
        pool_.record_failure(id, steady_now_ns());
        if (ctx != nullptr) ctx->clients[id].reset();
        return std::nullopt;
      }
      pool_.record_success(id);
      return RouteResult{encode_ok_frame(resp.type, resp.source, resp.digest, resp.artifact),
                         true};
    }
    // A decoded non-OK answer proves the shard is alive; its verdict
    // (QueueFull, Draining, ...) is relayed verbatim — backpressure is the
    // client's business, not a reason to eject the shard.
    pool_.record_success(id);
    return RouteResult{encode_error_frame(resp.type, resp.status, resp.artifact), false};
  } catch (const ServeError&) {
    // Dial refused, timeout, EOF mid-frame, undecodable response: the shard
    // is unreachable or unwell. Feed the circuit breaker and fail over.
    pool_.record_failure(id, steady_now_ns());
    if (ctx != nullptr) ctx->clients[id].reset();
    return std::nullopt;
  }
}

std::pair<std::optional<RouterServer::RouteResult>, std::size_t> RouterServer::attempt_hedged(
    const Request& request, std::uint64_t key, std::size_t primary_id, std::size_t backup_id,
    ConnCtx& ctx) {
  struct Shared {
    std::mutex m;
    std::condition_variable cv;
    bool primary_done = false;
    bool backup_done = false;
    std::optional<RouteResult> primary;
    std::optional<RouteResult> backup;
  };
  auto shared = std::make_shared<Shared>();
  // `request` is copied into each thread: a stray loser can outlive the
  // conn_main frame that decoded it.
  std::thread primary([this, request, primary_id, shared] {
    std::optional<RouteResult> r = attempt_backend(request, primary_id, nullptr);
    std::lock_guard<std::mutex> lock(shared->m);
    shared->primary = std::move(r);
    shared->primary_done = true;
    shared->cv.notify_all();
  });

  // Jitter the hedge trigger into [3/4, 5/4] of the delay, seeded by
  // (seed, key, tick) — deterministic per router, decorrelated across keys.
  const std::uint64_t base_ns = config_.hedge_delay_ms * 1'000'000ULL;
  const std::uint64_t jitter =
      rendezvous_score(config_.health.seed ^ key, ctx.hedge_tick++) % (base_ns / 2 + 1);
  const std::uint64_t delay_ns = base_ns - base_ns / 4 + jitter;

  std::unique_lock<std::mutex> lock(shared->m);
  shared->cv.wait_for(lock, std::chrono::nanoseconds(delay_ns),
                      [&] { return shared->primary_done; });
  if (shared->primary_done) {
    // The primary answered (or failed) inside the hedge window — no hedge.
    std::optional<RouteResult> r = std::move(shared->primary);
    lock.unlock();
    primary.join();
    return {std::move(r), 1};
  }

  hedges_launched_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  std::thread backup([this, request, backup_id, shared] {
    std::optional<RouteResult> r = attempt_backend(request, backup_id, nullptr);
    std::lock_guard<std::mutex> lock(shared->m);
    shared->backup = std::move(r);
    shared->backup_done = true;
    shared->cv.notify_all();
  });

  lock.lock();
  shared->cv.wait(lock, [&] {
    return (shared->primary_done && shared->primary.has_value()) ||
           (shared->backup_done && shared->backup.has_value()) ||
           (shared->primary_done && shared->backup_done);
  });
  const bool primary_done = shared->primary_done;
  const bool backup_done = shared->backup_done;
  std::optional<RouteResult> winner;
  bool backup_won = false;
  if (primary_done && shared->primary.has_value()) {
    winner = std::move(shared->primary);
  } else if (backup_done && shared->backup.has_value()) {
    winner = std::move(shared->backup);
    backup_won = true;
  }
  lock.unlock();

  const auto reap = [&](std::thread& t, bool done) {
    if (done) {
      t.join();
    } else {
      ctx.strays.push_back(std::move(t));
    }
  };
  reap(primary, primary_done);
  reap(backup, backup_done);

  if (backup_won) hedges_won_.fetch_add(1, std::memory_order_relaxed);
  if (winner.has_value()) return {std::move(winner), 2};
  return {std::nullopt, 2};
}

RouterServer::RouteResult RouterServer::route(const Request& request, std::uint64_t key,
                                              ConnCtx& ctx) {
  requests_routed_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<std::size_t> order = pool_.rank(key);
  std::vector<std::size_t> live;
  live.reserve(order.size());
  for (const std::size_t id : order) {
    if (pool_.admits(id)) live.push_back(id);
  }

  bool any_failed = false;
  std::size_t i = 0;
  while (i < live.size()) {
    if (any_failed) failovers_.fetch_add(1, std::memory_order_relaxed);
    std::optional<RouteResult> result;
    if (i == 0 && config_.hedge_delay_ms > 0 && live.size() > 1) {
      auto [winner, consumed] = attempt_hedged(request, key, live[0], live[1], ctx);
      result = std::move(winner);
      i += consumed;
    } else {
      result = attempt_backend(request, live[i], &ctx);
      ++i;
    }
    if (!result.has_value()) {
      any_failed = true;
      continue;
    }
    if (result->ok) {
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      responses_error_.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(*result);
  }

  // Every shard was circuit-open or failed the attempt: a typed, immediate
  // answer — the cluster-down story is a retryable error, never a hang.
  no_backend_.fetch_add(1, std::memory_order_relaxed);
  responses_error_.fetch_add(1, std::memory_order_relaxed);
  return RouteResult{
      encode_error_frame(request.type, StatusCode::kNoBackend,
                         "no live backend: all " + std::to_string(pool_.size()) +
                             " shard(s) circuit-open or failing"),
      false};
}

std::string RouterServer::reply(const FrameHeader& header, std::string_view payload,
                                ConnCtx& ctx) {
  const RequestType type = static_cast<RequestType>(header.type);
  if (type == RequestType::kStats) {
    stats_probes_.fetch_add(1, std::memory_order_relaxed);
    const std::string artifact = render_stats();
    return encode_ok_frame(type, CacheSource::kCold, fnv1a(artifact), artifact);
  }
  if (drain_now()) {
    draining_rejected_.fetch_add(1, std::memory_order_relaxed);
    return encode_error_frame(type, StatusCode::kDraining,
                              "router is draining; request not admitted");
  }
  try {
    const Request request = decode_request(header.type, payload);
    return route(request, request_cache_key(request), ctx).frame;
  } catch (const ProtocolViolationError& e) {
    framing_.protocol_violations.fetch_add(1, std::memory_order_relaxed);
    return encode_error_frame(type, StatusCode::kProtocolViolation, e.what());
  }
}

void RouterServer::conn_main(int fd) {
  ConnCtx ctx;
  ctx.clients.resize(pool_.size());
  FrameConn conn(fd);
  const FrameHandler handle = [this, &ctx](const FrameHeader& header, std::string_view payload) {
    return reply(header, payload, ctx);
  };
  std::uint64_t drain_close_ns = 0;
  while (!conn.finished()) {
    if (drain_now()) {
      // Linger so unsent bytes go out and a request already on the wire gets
      // its typed Draining answer instead of a reset, then close.
      const std::uint64_t now = steady_now_ns();
      if (drain_close_ns == 0) {
        drain_close_ns = now + kDrainLingerNs;
      } else if (now >= drain_close_ns) {
        break;
      }
    }
    pollfd pfd{conn.fd(), conn.poll_events(), 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) break;
    if ((pfd.revents & (POLLIN | POLLHUP)) != 0) conn.receive();
    if (!conn.serve(config_.max_request_bytes, framing_, handle)) break;
  }

  for (std::thread& stray : ctx.strays) stray.join();
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

RouterStats RouterServer::run() {
  if (!listener_.listening()) throw ServeError("route: run() before bind()");
  pool_.start_probing();

  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<ConnThread> conns;
  const auto reap_finished = [&conns] {
    for (std::size_t i = 0; i < conns.size();) {
      if (conns[i].done->load(std::memory_order_relaxed)) {
        conns[i].thread.join();
        conns[i] = std::move(conns.back());
        conns.pop_back();
      } else {
        ++i;
      }
    }
  };

  while (!drain_now()) {
    reap_finished();
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      pool_.stop_probing();
      throw ServeError(errno_text("route: poll"));
    }
    if (rc == 0) continue;
    for (;;) {
      const int fd = listener_.accept();
      if (fd < 0) break;
      if (active_connections_.load(std::memory_order_relaxed) >= config_.max_connections) {
        connections_rejected_.fetch_add(1, std::memory_order_relaxed);
        ::close(fd);
        continue;
      }
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      active_connections_.fetch_add(1, std::memory_order_relaxed);
      auto done = std::make_shared<std::atomic<bool>>(false);
      conns.push_back(ConnThread{std::thread([this, fd, done] {
                                   conn_main(fd);
                                   done->store(true, std::memory_order_relaxed);
                                 }),
                                 done});
    }
  }

  drain_requested_.store(true, std::memory_order_relaxed);
  listener_.close();
  for (ConnThread& conn : conns) conn.thread.join();
  pool_.stop_probing();

  RouterStats stats;
  stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  stats.requests_routed = requests_routed_.load(std::memory_order_relaxed);
  stats.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  stats.responses_error = responses_error_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  stats.hedges_won = hedges_won_.load(std::memory_order_relaxed);
  stats.digest_rejected = digest_rejected_.load(std::memory_order_relaxed);
  stats.no_backend = no_backend_.load(std::memory_order_relaxed);
  stats.stats_probes = stats_probes_.load(std::memory_order_relaxed);
  stats.protocol_violations = framing_.protocol_violations.load(std::memory_order_relaxed);
  stats.too_large = framing_.too_large.load(std::memory_order_relaxed);
  stats.draining_rejected = draining_rejected_.load(std::memory_order_relaxed);
  stats.unsent_pauses = framing_.unsent_pauses.load(std::memory_order_relaxed);
  stats.backends = pool_.snapshot();
  return stats;
}

}  // namespace bcclb
