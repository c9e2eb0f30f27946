#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <thread>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/handlers.h"

namespace bcclb {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

ServeServer::ServeServer(ServeConfig config)
    : config_(std::move(config)),
      runner_(config_.threads),
      cache_(resolve_cache_budget(config_.cache_budget_bytes)),
      chaos_(config_.faults) {
  if (!config_.store_dir.empty()) disk_ = std::make_unique<DiskStore>(config_.store_dir);
}

ServeServer::~ServeServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  if (owns_unix_path_) ::unlink(config_.unix_path.c_str());
}

void ServeServer::bind() {
  if (listen_fd_ >= 0) throw ServeError("serve: already bound");
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw ServeError(errno_text("serve: pipe2"));
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];

  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof addr.sun_path) {
      throw ServeError("serve: unix socket path longer than " +
                       std::to_string(sizeof addr.sun_path - 1) + " bytes");
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(), sizeof addr.sun_path - 1);

    // A stale socket file from a crashed daemon blocks bind(); a live one
    // means another instance is serving. Probe: if anyone accepts, refuse.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
      ::close(probe);
      if (live) {
        throw ServeError("serve: '" + config_.unix_path + "' is already being served");
      }
    }
    ::unlink(config_.unix_path.c_str());

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw ServeError(errno_text("serve: socket"));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw ServeError(errno_text(("serve: bind '" + config_.unix_path + "'").c_str()));
    }
    owns_unix_path_ = true;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw ServeError(errno_text("serve: socket"));
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw ServeError(errno_text("serve: bind 127.0.0.1"));
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    resolved_port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 128) != 0) throw ServeError(errno_text("serve: listen"));
}

std::string ServeServer::endpoint() const {
  if (!config_.unix_path.empty()) return "unix:" + config_.unix_path;
  return "tcp:127.0.0.1:" + std::to_string(resolved_port_);
}

void ServeServer::begin_drain() { drain_requested_.store(true, std::memory_order_relaxed); }

void ServeServer::enter_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::string ServeServer::render_stats() const {
  const CacheStats cache = cache_.stats();
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(mutex_));
    depth = queue_.size();
  }
  std::string out = "bccd stats\n";
  const auto line = [&out](const char* name, std::uint64_t v) {
    out += name;
    out += " = ";
    out += std::to_string(v);
    out += "\n";
  };
  out += std::string("draining = ") +
         (drain_requested_.load(std::memory_order_relaxed) ? "yes" : "no") + "\n";
  line("queue depth", depth);
  line("queue capacity", config_.queue_capacity);
  line("in flight", in_flight_.load(std::memory_order_relaxed));
  line("connections accepted", connections_accepted_.load(std::memory_order_relaxed));
  line("connections rejected", connections_rejected_.load(std::memory_order_relaxed));
  line("requests admitted", requests_admitted_.load(std::memory_order_relaxed));
  line("responses ok", responses_ok_.load(std::memory_order_relaxed));
  line("compute failed", compute_failed_.load(std::memory_order_relaxed));
  line("rejected queue-full", queue_full_.load(std::memory_order_relaxed));
  line("rejected too-large", too_large_.load(std::memory_order_relaxed));
  line("protocol violations", protocol_violations_.load(std::memory_order_relaxed));
  line("rejected draining", draining_rejected_.load(std::memory_order_relaxed));
  line("stats probes", stats_probes_.load(std::memory_order_relaxed));
  line("coalesced", coalesced_.load(std::memory_order_relaxed));
  line("cache hits", cache.hits);
  line("cache misses", cache.misses);
  line("cache evictions", cache.evictions);
  line("cache verify failures", cache.verify_failures);
  line("cache entries", cache.entries);
  line("cache bytes", cache.bytes);
  line("cache budget bytes", cache.budget_bytes);
  if (disk_ != nullptr) {
    const DiskStoreStats disk = disk_->stats();
    line("disk hits", disk.hits);
    line("disk misses", disk.misses);
    line("disk writes", disk.writes);
    line("disk write failures", disk.write_failures);
    line("disk quarantined", disk.quarantined);
  }
  if (config_.faults.enabled()) {
    line("chaos stalls", chaos_.stalls_injected());
    line("chaos corrupted responses", chaos_.responses_corrupted());
    line("chaos corrupted disk entries", chaos_.disk_entries_corrupted());
  }
  return out;
}

void ServeServer::scheduler_main() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (queue_.empty() && draining_) break;
    }
    // The hold runs unlocked so the I/O thread keeps admitting (tests use it
    // to deterministically fill the queue, then release).
    if (config_.test_hold) config_.test_hold();
    std::vector<PendingRequest> batch;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    if (batch.empty()) continue;
    in_flight_.store(batch.size(), std::memory_order_relaxed);
    process_batch(batch);
    in_flight_.store(0, std::memory_order_relaxed);
  }
  scheduler_done_.store(true, std::memory_order_relaxed);
  // Wake the poll loop so the exit check runs promptly.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t w = ::write(wake_w_, &byte, 1);
}

void ServeServer::process_batch(std::vector<PendingRequest>& batch) {
  const std::size_t count = batch.size();
  std::vector<std::string> artifacts(count);
  std::vector<std::string> errors(count);
  std::vector<StatusCode> error_codes(count, StatusCode::kOk);
  std::vector<CacheSource> sources(count, CacheSource::kCold);

  std::vector<std::size_t> miss_indices;
  std::vector<std::uint64_t> miss_keys;
  for (std::size_t i = 0; i < count; ++i) {
    // The counting lookup: a request the I/O thread looked up first had its
    // miss left uncounted for this one, and a build may have landed since.
    if (auto hit = cache_.lookup(batch[i].key)) {
      artifacts[i] = std::move(*hit);
      sources[i] = CacheSource::kHit;
      continue;
    }
    if (disk_ != nullptr) {
      // Tier 2: a digest-verified read from the durable store. Warm the
      // memory tier so later repeats skip the filesystem; a corrupt entry
      // was quarantined inside lookup() and falls through to a recompute.
      if (auto stored = disk_->lookup(batch[i].key)) {
        cache_.insert(batch[i].key, *stored);
        artifacts[i] = std::move(*stored);
        sources[i] = CacheSource::kDisk;
        continue;
      }
    }
    miss_indices.push_back(i);
    miss_keys.push_back(batch[i].key);
  }

  // Distinct misses fan out across the BatchRunner pool; a lone miss keeps
  // the full width for its own nested kernels (the builds are bit-identical
  // at any width, so this only moves time around).
  const CoalescePlan plan = runner_.for_each_coalesced(miss_keys, [&](std::size_t j) {
    const std::size_t i = miss_indices[j];
    const unsigned inner_threads = miss_keys.size() > 1 ? 1 : config_.threads;
    try {
      artifacts[i] = compute_artifact(batch[i].request, inner_threads);
    } catch (const ProtocolViolationError& e) {
      errors[i] = e.what();
      error_codes[i] = StatusCode::kProtocolViolation;
    } catch (const BcclbError& e) {
      errors[i] = std::string(e.kind()) + ": " + e.what();
      error_codes[i] = StatusCode::kComputeFailed;
    } catch (const std::exception& e) {
      errors[i] = e.what();
      error_codes[i] = StatusCode::kInternal;
    }
  });

  // Replicate executed results onto coalesced aliases, then publish the
  // successful builds.
  for (std::size_t j = 0; j < miss_indices.size(); ++j) {
    const std::size_t u = plan.alias_of[j];
    if (u == j) continue;
    const std::size_t i = miss_indices[j];
    const std::size_t src = miss_indices[u];
    artifacts[i] = artifacts[src];
    errors[i] = errors[src];
    error_codes[i] = error_codes[src];
    sources[i] = CacheSource::kCoalesced;
    coalesced_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const std::size_t j : plan.unique) {
    const std::size_t i = miss_indices[j];
    if (error_codes[i] != StatusCode::kOk) continue;
    cache_.insert(batch[i].key, artifacts[i]);
    if (disk_ != nullptr) {
      disk_->insert(batch[i].key, artifacts[i]);
      // Injected bit rot lands on the stored copy only; the response built
      // from memory below stays clean — the *next* daemon must quarantine.
      if (chaos_.should_corrupt_disk_entry()) disk_->corrupt_entry_for_test(batch[i].key);
    }
  }

  for (std::size_t i = 0; i < count; ++i) {
    std::string frame;
    if (error_codes[i] == StatusCode::kOk) {
      frame = ok_frame(batch[i].request.type, sources[i], artifacts[i]);
    } else {
      compute_failed_.fetch_add(1, std::memory_order_relaxed);
      frame = encode_error_frame(batch[i].request.type, error_codes[i], errors[i]);
      crash_point();
    }
    // Stalls are a scheduler-side fault: an inline hit never sleeps the I/O
    // thread, which also answers the health probes.
    if (const std::uint64_t stall = chaos_.stall_for_response()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    push_response(batch[i].conn_id, std::move(frame));
  }
}

// Every OK frame, from an inline hit or from the scheduler, is finished here,
// so both paths count, corrupt and crash identically.
std::string ServeServer::ok_frame(RequestType type, CacheSource source,
                                  const std::string& artifact) {
  responses_ok_.fetch_add(1, std::memory_order_relaxed);
  std::string frame = encode_ok_frame(type, source, fnv1a(artifact), artifact);
  // Chaos: flip one byte of the on-wire artifact *after* the digest was
  // computed — clients must catch this by digest verification, and the
  // cached/stored copies stay pristine.
  std::size_t byte_index = 0;
  unsigned char mask = 0;
  if (chaos_.corrupt_response(artifact.size(), byte_index, mask)) {
    char& byte = frame[kFrameHeaderBytes + 16 + byte_index];
    byte = static_cast<char>(static_cast<unsigned char>(byte) ^ mask);
  }
  crash_point();
  return frame;
}

void ServeServer::crash_point() {
  if (chaos_.should_crash_before_reply()) {
    // Crash-before-reply: the work is done (and durable, if a store is
    // configured) but the client never hears. _Exit skips every
    // destructor and flush — the closest in-process stand-in for SIGKILL.
    std::_Exit(137);
  }
}

void ServeServer::push_response(std::uint64_t conn_id, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    completed_.push_back(ReadyResponse{conn_id, std::move(frame)});
  }
  const char byte = 'x';
  [[maybe_unused]] const ssize_t w = ::write(wake_w_, &byte, 1);
}

void ServeServer::drain_completions() {
  std::vector<ReadyResponse> ready;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ready.swap(completed_);
  }
  for (ReadyResponse& response : ready) {
    const auto it = conns_.find(response.conn_id);
    if (it == conns_.end()) continue;  // client went away; drop the bytes
    it->second.outbuf += response.frame;
    --it->second.queued;
  }
}

void ServeServer::handle_frame(std::uint64_t conn_id, Connection& conn,
                               const FrameHeader& header, std::string_view payload) {
  const RequestType type = static_cast<RequestType>(header.type);
  if (type == RequestType::kStats) {
    // Health probes are served inline by the I/O thread: they must answer
    // even when the queue is saturated — that is the point of a probe.
    stats_probes_.fetch_add(1, std::memory_order_relaxed);
    const std::string artifact = render_stats();
    conn.outbuf += encode_ok_frame(type, CacheSource::kCold, fnv1a(artifact), artifact);
    return;
  }

  Request request;
  try {
    request = decode_request(header.type, payload);
  } catch (const ProtocolViolationError& e) {
    protocol_violations_.fetch_add(1, std::memory_order_relaxed);
    conn.outbuf += encode_error_frame(type, StatusCode::kProtocolViolation, e.what());
    return;
  }

  if (drain_requested_.load(std::memory_order_relaxed)) {
    draining_rejected_.fetch_add(1, std::memory_order_relaxed);
    conn.outbuf += encode_error_frame(type, StatusCode::kDraining,
                                      "daemon is draining; request not admitted");
    return;
  }

  const std::uint64_t key = request_cache_key(request);
  // A memory-tier hit is answered here, in this poll pass, unless an earlier
  // request on this connection is still queued: responses keep request
  // order. A miss goes on to the scheduler, whose lookup counts it (a build
  // may land in between) and which owns disk reads, coalescing and builds.
  if (conn.queued == 0) {
    if (const auto hit = cache_.lookup_hit(key)) {
      requests_admitted_.fetch_add(1, std::memory_order_relaxed);
      conn.outbuf += ok_frame(type, CacheSource::kHit, *hit);
      return;
    }
  }

  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() < config_.queue_capacity) {
      queue_.push_back(PendingRequest{conn_id, request, key});
      admitted = true;
    }
  }
  if (admitted) {
    requests_admitted_.fetch_add(1, std::memory_order_relaxed);
    ++conn.queued;
    cv_.notify_one();
  } else {
    // Typed backpressure: the connection survives, the client hears exactly
    // why, and may retry after a backoff.
    queue_full_.fetch_add(1, std::memory_order_relaxed);
    conn.outbuf += encode_error_frame(
        type, StatusCode::kQueueFull,
        "admission queue full (" + std::to_string(config_.queue_capacity) + ")");
  }
}

void ServeServer::parse_inbuf(std::uint64_t conn_id, Connection& conn) {
  for (;;) {
    // Over the unsent bound the rest of the input waits for a flush.
    if (conn.unsent() > kMaxUnsentBytes) return;
    if (conn.discard > 0) {
      const std::size_t take = std::min(conn.discard, conn.inbuf.size());
      conn.inbuf.erase(0, take);
      conn.discard -= take;
      if (conn.discard > 0) return;
    }
    if (conn.inbuf.size() < kFrameHeaderBytes) return;
    FrameHeader header;
    try {
      header = decode_frame_header(conn.inbuf);
    } catch (const ProtocolViolationError& e) {
      // Bad magic or version: the stream cannot be re-synchronized. Answer
      // once, then close after the flush.
      protocol_violations_.fetch_add(1, std::memory_order_relaxed);
      conn.outbuf += encode_error_frame(static_cast<RequestType>(0),
                                        StatusCode::kProtocolViolation, e.what());
      conn.close_after_flush = true;
      conn.inbuf.clear();
      return;
    }
    if (header.payload_len > config_.max_request_bytes) {
      // Framing is intact — skip exactly payload_len bytes and keep serving
      // the connection.
      too_large_.fetch_add(1, std::memory_order_relaxed);
      conn.outbuf += encode_error_frame(
          static_cast<RequestType>(header.type), StatusCode::kRequestTooLarge,
          "request payload of " + std::to_string(header.payload_len) +
              " bytes exceeds the " + std::to_string(config_.max_request_bytes) +
              "-byte cap");
      conn.inbuf.erase(0, kFrameHeaderBytes);
      conn.discard = header.payload_len;
      continue;
    }
    if (conn.inbuf.size() < kFrameHeaderBytes + header.payload_len) return;
    const std::string_view payload =
        std::string_view(conn.inbuf).substr(kFrameHeaderBytes, header.payload_len);
    handle_frame(conn_id, conn, header, payload);
    conn.inbuf.erase(0, kFrameHeaderBytes + header.payload_len);
  }
}

bool ServeServer::flush(Connection& conn) {
  while (conn.unsent() > 0) {
    const ssize_t w = ::send(conn.fd, conn.outbuf.data() + conn.outpos, conn.unsent(),
                             MSG_NOSIGNAL);
    if (w > 0) {
      conn.outpos += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (conn.unsent() == 0) {
    conn.outbuf.clear();
    conn.outpos = 0;
  } else if (conn.outpos >= kMaxUnsentBytes) {
    // A reader that keeps up only partly never empties outbuf; drop the
    // sent prefix so the buffer stays near the bound.
    conn.outbuf.erase(0, conn.outpos);
    conn.outpos = 0;
  }
  return true;
}

void ServeServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (conns_.size() >= config_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    Connection conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

void ServeServer::close_connection(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
}

ServeStats ServeServer::run() {
  if (listen_fd_ < 0 && !drain_requested_.load(std::memory_order_relaxed)) {
    throw ServeError("serve: run() before bind()");
  }
  scheduler_ = std::thread(&ServeServer::scheduler_main, this);

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;
  bool drained_entered = false;
  for (;;) {
    if (!drained_entered &&
        (drain_requested_.load(std::memory_order_relaxed) ||
         (config_.drain_flag != nullptr && *config_.drain_flag != 0))) {
      drained_entered = true;
      enter_drain();
    }

    fds.clear();
    ids.clear();
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const std::size_t listen_slots = fds.size();
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      // Over the unsent bound, stop reading until the client drains.
      short events = conn.unsent() > kMaxUnsentBytes ? 0 : POLLIN;
      if (conn.unsent() > 0) events |= POLLOUT;
      fds.push_back(pollfd{conn.fd, events, 0});
      ids.push_back(id);
    }
    // 50 ms cap so the drain flag (a sig_atomic_t written by a signal
    // handler) is noticed promptly even on an idle daemon.
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    if (listen_slots == 1 && (fds[0].revents & POLLIN) != 0) accept_ready();
    if ((fds[listen_slots].revents & POLLIN) != 0) {
      char scratch[256];
      while (::read(wake_r_, scratch, sizeof scratch) > 0) {
      }
    }
    // Before the connection pass, so finished builds go out in this pass.
    drain_completions();

    std::vector<std::uint64_t> to_close;
    for (std::size_t c = 0; c < ids.size(); ++c) {
      const pollfd& pfd = fds[listen_slots + 1 + c];
      const auto it = conns_.find(ids[c]);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) {
        to_close.push_back(ids[c]);
        continue;
      }
      if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
        char buf[65536];
        for (;;) {
          const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
          if (r > 0) {
            conn.inbuf.append(buf, static_cast<std::size_t>(r));
            continue;
          }
          if (r == 0) conn.close_after_flush = true;  // peer is done sending
          break;  // r < 0: EAGAIN (done) or a real error surfaced at send
        }
      }
      // Parse and send until the input is used up or the socket is full:
      // parsing stops at the unsent bound, and a send can lift it again.
      bool dead = false;
      for (;;) {
        parse_inbuf(ids[c], conn);
        const bool stopped = conn.unsent() > kMaxUnsentBytes;
        if (!flush(conn)) {
          dead = true;
          break;
        }
        if (!stopped || conn.unsent() > kMaxUnsentBytes) break;
      }
      if (dead || (conn.close_after_flush && conn.unsent() == 0)) to_close.push_back(ids[c]);
    }
    for (const std::uint64_t id : to_close) close_connection(id);

    if (drained_entered && scheduler_done_.load(std::memory_order_relaxed)) {
      bool pending = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = !completed_.empty();
      }
      if (!pending) {
        for (const auto& [id, conn] : conns_) {
          if (conn.unsent() > 0) {
            pending = true;
            break;
          }
        }
      }
      if (!pending) break;
    }
  }

  scheduler_.join();
  drain_completions();  // scheduler is gone; anything left has no reader
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  if (owns_unix_path_) {
    ::unlink(config_.unix_path.c_str());
    owns_unix_path_ = false;
  }

  ServeStats stats;
  stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  stats.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  stats.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  stats.compute_failed = compute_failed_.load(std::memory_order_relaxed);
  stats.queue_full = queue_full_.load(std::memory_order_relaxed);
  stats.too_large = too_large_.load(std::memory_order_relaxed);
  stats.protocol_violations = protocol_violations_.load(std::memory_order_relaxed);
  stats.draining_rejected = draining_rejected_.load(std::memory_order_relaxed);
  stats.stats_probes = stats_probes_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.cache = cache_.stats();
  if (disk_ != nullptr) stats.disk = disk_->stats();
  stats.chaos_stalls = chaos_.stalls_injected();
  stats.chaos_corrupted_responses = chaos_.responses_corrupted();
  stats.chaos_corrupted_disk = chaos_.disk_entries_corrupted();
  return stats;
}

}  // namespace bcclb
