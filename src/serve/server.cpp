#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/handlers.h"

namespace bcclb {

ServeServer::ServeServer(ServeConfig config)
    : config_(std::move(config)),
      runner_(config_.threads),
      cache_(resolve_cache_budget(config_.cache_budget_bytes)),
      chaos_(config_.faults) {
  if (!config_.store_dir.empty()) disk_ = std::make_unique<DiskStore>(config_.store_dir);
}

ServeServer::~ServeServer() {
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
}

void ServeServer::bind() {
  listener_.bind(config_.unix_path, config_.tcp_port, "serve");
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw ServeError(errno_text("serve: pipe2"));
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
}

void ServeServer::begin_drain() { drain_requested_.store(true, std::memory_order_relaxed); }

void ServeServer::enter_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  listener_.close();
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
  line("rejected too-large", framing_.too_large.load(std::memory_order_relaxed));
  line("protocol violations", framing_.protocol_violations.load(std::memory_order_relaxed));
  line("rejected draining", draining_rejected_.load(std::memory_order_relaxed));
  line("unsent-bound pauses", framing_.unsent_pauses.load(std::memory_order_relaxed));
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
    it->second.io.queue_output(response.frame);
    --it->second.queued;
  }
}

std::string ServeServer::handle_frame(std::uint64_t conn_id, Connection& conn,
                                      const FrameHeader& header, std::string_view payload) {
  const RequestType type = static_cast<RequestType>(header.type);
  if (type == RequestType::kStats) {
    // Health probes are served inline by the I/O thread: they must answer
    // even when the queue is saturated — that is the point of a probe.
    stats_probes_.fetch_add(1, std::memory_order_relaxed);
    const std::string artifact = render_stats();
    return encode_ok_frame(type, CacheSource::kCold, fnv1a(artifact), artifact);
  }

  Request request;
  try {
    request = decode_request(header.type, payload);
  } catch (const ProtocolViolationError& e) {
    framing_.protocol_violations.fetch_add(1, std::memory_order_relaxed);
    return encode_error_frame(type, StatusCode::kProtocolViolation, e.what());
  }

  if (drain_requested_.load(std::memory_order_relaxed)) {
    draining_rejected_.fetch_add(1, std::memory_order_relaxed);
    return encode_error_frame(type, StatusCode::kDraining,
                              "daemon is draining; request not admitted");
  }

  const std::uint64_t key = request_cache_key(request);
  // A memory-tier hit is answered here, in this poll pass, unless an earlier
  // request on this connection is still queued: responses keep request
  // order. A miss goes on to the scheduler, whose lookup counts it (a build
  // may land in between) and which owns disk reads, coalescing and builds.
  if (conn.queued == 0) {
    if (const auto hit = cache_.lookup_hit(key)) {
      requests_admitted_.fetch_add(1, std::memory_order_relaxed);
      return ok_frame(type, CacheSource::kHit, *hit);
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
    return {};
  }
  // Typed backpressure: the connection survives, the client hears exactly
  // why, and may retry after a backoff.
  queue_full_.fetch_add(1, std::memory_order_relaxed);
  return encode_error_frame(type, StatusCode::kQueueFull,
                            "admission queue full (" + std::to_string(config_.queue_capacity) +
                                ")");
}

void ServeServer::accept_ready() {
  for (;;) {
    const int fd = listener_.accept();
    if (fd < 0) return;
    if (conns_.size() >= config_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    conns_.try_emplace(next_conn_id_++, fd);
  }
}

ServeStats ServeServer::run() {
  if (!listener_.listening() && !drain_requested_.load(std::memory_order_relaxed)) {
    throw ServeError("serve: run() before bind()");
  }
  scheduler_ = std::thread(&ServeServer::scheduler_main, this);

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;
  bool drained_entered = false;
  std::uint64_t linger_until_ns = 0;
  for (;;) {
    if (!drained_entered &&
        (drain_requested_.load(std::memory_order_relaxed) ||
         (config_.drain_flag != nullptr && *config_.drain_flag != 0))) {
      drained_entered = true;
      enter_drain();
    }

    fds.clear();
    ids.clear();
    if (listener_.listening()) fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    const std::size_t listen_slots = fds.size();
    fds.push_back(pollfd{wake_r_, POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      fds.push_back(pollfd{conn.io.fd(), conn.io.poll_events(), 0});
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

    for (std::size_t c = 0; c < ids.size(); ++c) {
      const pollfd& pfd = fds[listen_slots + 1 + c];
      const auto it = conns_.find(ids[c]);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      bool alive = (pfd.revents & (POLLERR | POLLNVAL)) == 0;
      if (alive) {
        if ((pfd.revents & (POLLIN | POLLHUP)) != 0) conn.io.receive();
        alive = conn.io.serve(config_.max_request_bytes, framing_,
                              [this, &entry = *it](const FrameHeader& header,
                                                   std::string_view payload) {
                                return handle_frame(entry.first, entry.second, header, payload);
                              });
      }
      if (!alive || (conn.io.finished() && conn.queued == 0)) conns_.erase(it);
    }

    if (drained_entered && scheduler_done_.load(std::memory_order_relaxed)) {
      // Nothing admitted is left: connections get kDrainLingerNs to take
      // their unsent bytes, then run() returns.
      const std::uint64_t now = steady_now_ns();
      if (linger_until_ns == 0) linger_until_ns = now + kDrainLingerNs;
      bool pending = now < linger_until_ns &&
                     std::any_of(conns_.begin(), conns_.end(),
                                 [](const auto& entry) { return entry.second.io.unsent() > 0; });
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = pending || !completed_.empty();
      }
      if (!pending) break;
    }
  }

  scheduler_.join();
  drain_completions();  // scheduler is gone; anything left has no reader
  conns_.clear();

  ServeStats stats;
  stats.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  stats.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  stats.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  stats.compute_failed = compute_failed_.load(std::memory_order_relaxed);
  stats.queue_full = queue_full_.load(std::memory_order_relaxed);
  stats.too_large = framing_.too_large.load(std::memory_order_relaxed);
  stats.protocol_violations = framing_.protocol_violations.load(std::memory_order_relaxed);
  stats.draining_rejected = draining_rejected_.load(std::memory_order_relaxed);
  stats.unsent_pauses = framing_.unsent_pauses.load(std::memory_order_relaxed);
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
