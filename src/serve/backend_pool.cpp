#include "serve/backend_pool.h"

#include <algorithm>
#include <charconv>
#include <chrono>

#include "common/errors.h"
#include "common/random.h"
#include "serve/client.h"
#include "serve/conn.h"

namespace bcclb {

const char* backend_state_name(BackendState state) {
  switch (state) {
    case BackendState::kClosed: return "closed";
    case BackendState::kOpen: return "open";
    case BackendState::kHalfOpen: return "half-open";
  }
  return "?";
}

std::string BackendEndpoint::to_string() const {
  if (!unix_path.empty()) return "unix:" + unix_path;
  return "tcp:" + std::to_string(tcp_port);
}

std::optional<BackendEndpoint> parse_backend_endpoint(std::string_view text) {
  constexpr std::string_view kUnix = "unix:";
  constexpr std::string_view kTcp = "tcp:";
  if (text.substr(0, kUnix.size()) == kUnix) {
    const std::string_view path = text.substr(kUnix.size());
    if (path.empty()) return std::nullopt;
    BackendEndpoint ep;
    ep.unix_path.assign(path);
    return ep;
  }
  if (text.substr(0, kTcp.size()) == kTcp) {
    const std::string_view digits = text.substr(kTcp.size());
    std::uint32_t port = 0;
    const auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), port);
    // Whole-string parse only, and port 0 (the "pick for me" sentinel on the
    // server side) is meaningless as a dial target.
    if (ec != std::errc() || ptr != digits.data() + digits.size() || port == 0 || port > 65535) {
      return std::nullopt;
    }
    BackendEndpoint ep;
    ep.tcp_port = static_cast<std::uint16_t>(port);
    return ep;
  }
  return std::nullopt;
}

std::uint64_t rendezvous_score(std::uint64_t key, std::uint64_t backend_ordinal) {
  return splitmix64_mix(key ^ splitmix64_mix(backend_ordinal + 1));
}

BackendPool::BackendPool(std::vector<BackendEndpoint> endpoints, BackendPolicy policy)
    : endpoints_(std::move(endpoints)), policy_(policy), backends_(endpoints_.size()) {}

BackendPool::~BackendPool() { stop_probing(); }

std::vector<std::size_t> BackendPool::rank(std::uint64_t key) const {
  std::vector<std::size_t> order(endpoints_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [key](std::size_t a, std::size_t b) {
    const std::uint64_t sa = rendezvous_score(key, a);
    const std::uint64_t sb = rendezvous_score(key, b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

bool BackendPool::admits(std::size_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backends_[id].state != BackendState::kOpen;
}

BackendState BackendPool::state(std::size_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backends_[id].state;
}

void BackendPool::record_success_locked(Backend& backend) {
  backend.consecutive_failures = 0;
  if (backend.state != BackendState::kClosed) {
    backend.state = BackendState::kClosed;
    ++backend.counters.circuit_closed;
  }
}

void BackendPool::record_failure_locked(Backend& backend, std::uint64_t now_ns) {
  ++backend.consecutive_failures;
  const bool open_now =
      backend.state == BackendState::kHalfOpen ||
      (backend.state == BackendState::kClosed &&
       backend.consecutive_failures >= policy_.fail_threshold);
  if (open_now) {
    backend.state = BackendState::kOpen;
    backend.opened_at_ns = now_ns;
    ++backend.counters.circuit_opened;
  }
}

void BackendPool::record_success(std::size_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++backends_[id].counters.ok;
  record_success_locked(backends_[id]);
}

void BackendPool::record_failure(std::size_t id, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++backends_[id].counters.failures;
  record_failure_locked(backends_[id], now_ns);
}

void BackendPool::count_routed(std::size_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++backends_[id].counters.routed;
}

bool BackendPool::tick(std::size_t id, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Backend& backend = backends_[id];
  if (backend.state != BackendState::kOpen) return false;
  if (now_ns - backend.opened_at_ns < policy_.open_cooldown_ms * 1'000'000ULL) return false;
  backend.state = BackendState::kHalfOpen;
  ++backend.counters.circuit_half_open;
  return true;
}

void BackendPool::probe_once(std::uint64_t now_ns) {
  for (std::size_t id = 0; id < endpoints_.size(); ++id) {
    tick(id, now_ns);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (backends_[id].state == BackendState::kOpen) continue;
    }
    // Fresh connection per probe: a cached fd could be healthy while the
    // daemon behind it stopped accepting, and the router's data-path
    // connections must never be borrowed by the prober.
    bool ok = false;
    try {
      const BackendEndpoint& ep = endpoints_[id];
      ServeClient probe = ep.unix_path.empty() ? ServeClient::connect_tcp(ep.tcp_port)
                                               : ServeClient::connect_unix(ep.unix_path);
      ClientRetryPolicy policy;
      policy.deadline_ms = policy_.probe_deadline_ms;
      Request stats;
      stats.type = RequestType::kStats;
      const RetryOutcome out = probe.request_with_retry(stats, policy);
      // Any decoded answer — even Draining — proves the daemon is alive and
      // speaking BCS1; the router passes backpressure through, it does not
      // eject the shard for it.
      ok = out.response.type == RequestType::kStats;
    } catch (const ServeError&) {
      ok = false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    Backend& backend = backends_[id];
    if (ok) {
      ++backend.counters.probes_ok;
      record_success_locked(backend);
    } else {
      ++backend.counters.probes_failed;
      record_failure_locked(backend, now_ns);
    }
  }
}

void BackendPool::start_probing() {
  if (policy_.probe_interval_ms == 0 || probe_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = false;
  }
  probe_thread_ = std::thread([this] { probe_main(); });
}

void BackendPool::stop_probing() {
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

void BackendPool::probe_main() {
  const std::uint64_t base_ns = policy_.probe_interval_ms * 1'000'000ULL;
  for (std::uint64_t pass = 0;; ++pass) {
    // Jitter the k-th sleep into [3/4, 5/4] of the interval, purely from
    // (seed, k): deterministic per router, decorrelated across routers.
    const std::uint64_t jitter =
        splitmix64_mix(policy_.seed ^ splitmix64_mix(pass)) % (base_ns / 2 + 1);
    const std::uint64_t sleep_ns = base_ns - base_ns / 4 + jitter;
    {
      std::unique_lock<std::mutex> lock(probe_mutex_);
      probe_cv_.wait_for(lock, std::chrono::nanoseconds(sleep_ns), [this] { return probe_stop_; });
      if (probe_stop_) return;
    }
    probe_once(steady_now_ns());
  }
}

std::vector<BackendSnapshot> BackendPool::snapshot() const {
  std::vector<BackendSnapshot> out(endpoints_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t id = 0; id < endpoints_.size(); ++id) {
    out[id].endpoint = endpoints_[id];
    out[id].state = backends_[id].state;
    out[id].counters = backends_[id].counters;
  }
  return out;
}

}  // namespace bcclb
