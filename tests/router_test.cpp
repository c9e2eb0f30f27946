// bccr shard router: rendezvous hashing, the per-backend circuit breaker,
// failover, hedging, digest-verified relays, and the typed all-shards-dead
// answer.
//
// End-to-end tests run real ServeServer backends on ephemeral TCP ports
// behind a real RouterServer, driven through ServeClient — the same path
// `bcclb serve` / `bcclb route` / `bcclb loadgen --router` take. Circuit
// state-machine tests drive BackendPool with explicit synthetic clocks, so
// no transition depends on wall-clock sleeps. Active probing is disabled
// (probe_interval_ms = 0) except where a test is about probing, so health
// transitions happen exactly when the test performs them.
//
// The BothServers typed tests run the client-visible behaviour of the shared
// connection layer (serve/conn.h) against bccd alone and against bccr in
// front of one bccd: framing errors, the stale-socket reclaim, and drain with
// a client that never reads.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "serve/backend_pool.h"
#include "serve/client.h"
#include "serve/conn.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace bcclb {
namespace {

// ---- helpers ---------------------------------------------------------------

Request classify_request(std::uint32_t n, std::uint64_t packed) {
  Request r;
  r.type = RequestType::kClassify;
  r.n = n;
  r.packed = packed;
  return r;
}

Request indist_request(std::uint32_t n) {
  Request r;
  r.type = RequestType::kIndistGraph;
  r.n = n;
  return r;
}

Request rank_request(char family, std::uint32_t n) {
  Request r;
  r.type = RequestType::kRank;
  r.family = static_cast<std::uint8_t>(family);
  r.n = n;
  return r;
}

Request stats_request() {
  Request r;
  r.type = RequestType::kStats;
  return r;
}

// Packed word of the canonical single cycle 0 -> 1 -> ... -> n-1 -> 0.
std::uint64_t ring_word(std::uint32_t n) {
  std::uint64_t packed = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    packed |= static_cast<std::uint64_t>((v + 1) % n) << (4 * v);
  }
  return packed;
}

// A small bag of distinct real requests to pick routing victims from.
std::vector<Request> candidate_requests() {
  std::vector<Request> out;
  for (std::uint32_t n = 4; n <= 12; ++n) out.push_back(classify_request(n, ring_word(n)));
  for (std::uint32_t n = kMinIndistN; n <= kMaxIndistN; ++n) out.push_back(indist_request(n));
  return out;
}

// Binds and runs a real bccd on an ephemeral TCP port; drains on stop().
class RunningBackend {
 public:
  explicit RunningBackend(ServeConfig config = {}) : server_(std::move(config)) {
    server_.bind();
    thread_ = std::thread([this] { stats_ = server_.run(); });
  }
  ~RunningBackend() { stop(); }
  ServeServer& server() { return server_; }
  std::uint16_t port() const { return server_.tcp_port(); }
  ServeStats stop() {
    if (thread_.joinable()) {
      server_.begin_drain();
      thread_.join();
    }
    return stats_;
  }

 private:
  ServeServer server_;
  std::thread thread_;
  ServeStats stats_;
};

BackendEndpoint tcp_backend(std::uint16_t port) {
  BackendEndpoint ep;
  ep.tcp_port = port;
  return ep;
}

// Binds and runs a RouterServer over the given backends on an ephemeral TCP
// port. Probing is off by default so tests control every health transition.
class RunningRouter {
 public:
  explicit RunningRouter(RouterConfig config) : router_(std::move(config)) {
    router_.bind();
    thread_ = std::thread([this] { stats_ = router_.run(); });
  }
  ~RunningRouter() { stop(); }
  RouterServer& router() { return router_; }
  std::uint16_t port() const { return router_.tcp_port(); }
  ServeClient connect() { return ServeClient::connect_tcp(router_.tcp_port()); }
  RouterStats stop() {
    if (thread_.joinable()) {
      router_.begin_drain();
      thread_.join();
    }
    return stats_;
  }

 private:
  RouterServer router_;
  std::thread thread_;
  RouterStats stats_;
};

RouterConfig router_config(std::vector<std::uint16_t> backend_ports) {
  RouterConfig config;
  for (const std::uint16_t port : backend_ports) config.backends.push_back(tcp_backend(port));
  config.health.probe_interval_ms = 0;  // tests drive health explicitly
  config.health.fail_threshold = 1;
  config.attempt_deadline_ms = 5000;
  return config;
}

// A request whose rendezvous rank puts `backend` first — the deterministic
// victim for failover/hedge scenarios.
Request request_owned_by(const BackendPool& pool, std::size_t backend) {
  for (const Request& request : candidate_requests()) {
    if (pool.rank(request_cache_key(request))[0] == backend) return request;
  }
  ADD_FAILURE() << "no candidate request hashes to backend " << backend;
  return stats_request();
}

// ---- endpoint parsing ------------------------------------------------------

TEST(BackendEndpoint, ParsesUnixAndTcpForms) {
  const auto unix_ep = parse_backend_endpoint("unix:/tmp/bccd.sock");
  ASSERT_TRUE(unix_ep.has_value());
  EXPECT_EQ(unix_ep->unix_path, "/tmp/bccd.sock");
  EXPECT_EQ(unix_ep->to_string(), "unix:/tmp/bccd.sock");

  const auto tcp_ep = parse_backend_endpoint("tcp:4321");
  ASSERT_TRUE(tcp_ep.has_value());
  EXPECT_EQ(tcp_ep->tcp_port, 4321);
  EXPECT_EQ(tcp_ep->to_string(), "tcp:4321");
}

TEST(BackendEndpoint, RejectsMalformedSpecs) {
  for (const char* bad : {"", "unix:", "tcp:", "tcp:0", "tcp:65536", "tcp:12x", "tcp:-1",
                          "http://x", "4321", "/tmp/plain.sock"}) {
    EXPECT_FALSE(parse_backend_endpoint(bad).has_value()) << bad;
  }
}

// ---- rendezvous hashing ----------------------------------------------------

TEST(Rendezvous, RankIsADeterministicPermutation) {
  BackendPool pool({tcp_backend(1), tcp_backend(2), tcp_backend(3), tcp_backend(4)}, {});
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const std::vector<std::size_t> order = pool.rank(key);
    EXPECT_EQ(order, pool.rank(key));  // pure in the key
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()),
              (std::set<std::size_t>{0, 1, 2, 3}));
    // The ranking really is by descending score.
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(rendezvous_score(key, order[i - 1]), rendezvous_score(key, order[i]));
    }
  }
}

TEST(Rendezvous, OwnershipIsRoughlyBalanced) {
  BackendPool pool(std::vector<BackendEndpoint>(5, tcp_backend(1)), {});
  std::vector<int> owned(5, 0);
  const int kKeys = 5000;
  for (int k = 0; k < kKeys; ++k) {
    ++owned[pool.rank(0x9e3779b97f4a7c15ULL * (k + 1))[0]];
  }
  for (int count : owned) {
    // Expected 1000 per backend; a factor-2 band is far outside noise for a
    // working mixer and far inside it for a broken one.
    EXPECT_GT(count, 500);
    EXPECT_LT(count, 2000);
  }
}

TEST(Rendezvous, RemovingABackendOnlyRemapsItsOwnKeys) {
  BackendPool pool({tcp_backend(1), tcp_backend(2), tcp_backend(3), tcp_backend(4)}, {});
  for (std::uint64_t key = 1; key <= 256; ++key) {
    const std::vector<std::size_t> order = pool.rank(key);
    const std::size_t owner = order[0];
    // Keys not owned by the "removed" backend keep their owner; the removed
    // backend's keys fall to their second choice — the failover invariant
    // that preserves the rest of the fleet's cache locality.
    for (std::size_t removed = 0; removed < 4; ++removed) {
      std::size_t surviving_owner = order[0] == removed ? order[1] : order[0];
      if (removed != owner) {
        EXPECT_EQ(surviving_owner, owner);
      }
    }
  }
}

// ---- circuit breaker (synthetic clock, no I/O) ------------------------------

BackendPolicy breaker_policy(unsigned fail_threshold = 3) {
  BackendPolicy policy;
  policy.fail_threshold = fail_threshold;
  policy.open_cooldown_ms = 50;
  policy.probe_interval_ms = 0;
  return policy;
}

TEST(CircuitBreaker, OpensAfterThresholdThenHalfOpensAndReadmits) {
  BackendPool pool({tcp_backend(1), tcp_backend(2)}, breaker_policy(3));
  const std::uint64_t t0 = 1'000'000'000ULL;

  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);  // under threshold
  EXPECT_TRUE(pool.admits(0));

  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);
  EXPECT_FALSE(pool.admits(0));
  EXPECT_TRUE(pool.admits(1));  // the breaker is per-backend

  // Cooldown not yet elapsed: stays open.
  EXPECT_FALSE(pool.tick(0, t0 + 49'000'000ULL));
  EXPECT_EQ(pool.state(0), BackendState::kOpen);

  // Cooldown elapsed: probation, and probation admits traffic.
  EXPECT_TRUE(pool.tick(0, t0 + 50'000'000ULL));
  EXPECT_EQ(pool.state(0), BackendState::kHalfOpen);
  EXPECT_TRUE(pool.admits(0));

  pool.record_success(0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);

  const std::vector<BackendSnapshot> snapshot = pool.snapshot();
  EXPECT_EQ(snapshot[0].counters.circuit_opened, 1u);
  EXPECT_EQ(snapshot[0].counters.circuit_half_open, 1u);
  EXPECT_EQ(snapshot[0].counters.circuit_closed, 1u);
  EXPECT_EQ(snapshot[1].counters.circuit_opened, 0u);
}

TEST(CircuitBreaker, HalfOpenFailureReopensImmediately) {
  BackendPool pool({tcp_backend(1)}, breaker_policy(2));
  const std::uint64_t t0 = 1'000'000'000ULL;
  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  ASSERT_EQ(pool.state(0), BackendState::kOpen);
  ASSERT_TRUE(pool.tick(0, t0 + 50'000'000ULL));

  // One failure in probation is enough — no second threshold to climb.
  pool.record_failure(0, t0 + 51'000'000ULL);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);
  EXPECT_EQ(pool.snapshot()[0].counters.circuit_opened, 2u);

  // And the cooldown restarts from the re-open.
  EXPECT_FALSE(pool.tick(0, t0 + 52'000'000ULL));
  EXPECT_TRUE(pool.tick(0, t0 + 101'000'000ULL));
  pool.record_success(0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureCount) {
  BackendPool pool({tcp_backend(1)}, breaker_policy(3));
  const std::uint64_t t0 = 1'000'000'000ULL;
  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  pool.record_success(0);  // sporadic failures never accumulate
  pool.record_failure(0, t0);
  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
  pool.record_failure(0, t0);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);
}

// ---- probing against a real backend ----------------------------------------

TEST(BackendPool, ProbeDiscoversDeathAndRecovery) {
  const std::string path =
      "/tmp/bcclb_router_probe_" + std::to_string(::getpid()) + ".sock";
  ServeConfig backend_config;
  backend_config.unix_path = path;
  auto backend = std::make_unique<RunningBackend>(backend_config);

  BackendEndpoint ep;
  ep.unix_path = path;
  BackendPolicy policy = breaker_policy(2);
  policy.probe_deadline_ms = 2000;
  BackendPool pool({ep}, policy);

  std::uint64_t now = 1'000'000'000ULL;
  pool.probe_once(now);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
  EXPECT_GE(pool.snapshot()[0].counters.probes_ok, 1u);

  // Kill the daemon; two failed probes open the circuit.
  backend->stop();
  backend.reset();
  pool.probe_once(now += 1'000'000ULL);
  pool.probe_once(now += 1'000'000ULL);
  EXPECT_EQ(pool.state(0), BackendState::kOpen);

  // While open, probes do not dial at all (the count stays put).
  const std::uint64_t probes_before = pool.snapshot()[0].counters.probes_failed;
  pool.probe_once(now += 1'000'000ULL);
  EXPECT_EQ(pool.snapshot()[0].counters.probes_failed, probes_before);

  // Restart on the same socket path; after the cooldown the next probe pass
  // half-opens and immediately re-admits.
  backend = std::make_unique<RunningBackend>(backend_config);
  pool.probe_once(now += policy.open_cooldown_ms * 1'000'000ULL);
  EXPECT_EQ(pool.state(0), BackendState::kClosed);
  EXPECT_GE(pool.snapshot()[0].counters.circuit_closed, 1u);
}

// ---- routing end-to-end -----------------------------------------------------

TEST(Router, RelaysByteIdenticalArtifacts) {
  RunningBackend b0, b1;
  RunningRouter router(router_config({b0.port(), b1.port()}));

  const Request request = classify_request(6, ring_word(6));
  ServeClient direct = ServeClient::connect_tcp(b0.port());
  const Response want = direct.request(request);
  ASSERT_EQ(want.status, StatusCode::kOk);

  ServeClient client = router.connect();
  const Response got = client.request(request);
  ASSERT_EQ(got.status, StatusCode::kOk);
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.artifact, want.artifact);  // byte identity through the router
  EXPECT_EQ(fnv1a(got.artifact), got.digest);

  const RouterStats stats = router.stop();
  EXPECT_EQ(stats.requests_routed, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
  EXPECT_EQ(stats.digest_rejected, 0u);
}

TEST(Router, StatsProbeAnswersInlineWithRouterCounters) {
  RunningBackend b0;
  RunningRouter router(router_config({b0.port()}));
  ServeClient client = router.connect();
  client.request(classify_request(5, ring_word(5)));

  const Response stats = client.request(stats_request());
  ASSERT_EQ(stats.status, StatusCode::kOk);
  EXPECT_EQ(fnv1a(stats.artifact), stats.digest);
  EXPECT_EQ(stats.artifact.rfind("bccr stats\n", 0), 0u);  // the router's own artifact
  EXPECT_NE(stats.artifact.find("requests routed = 1"), std::string::npos);
  EXPECT_NE(stats.artifact.find("backend 0 tcp:" + std::to_string(b0.port())),
            std::string::npos);
}

TEST(Router, FailsOverWhenThePrimaryShardDies) {
  RunningBackend b0, b1;
  RunningRouter router(router_config({b0.port(), b1.port()}));
  const Request victim = request_owned_by(router.router().pool(), 0);

  b0.stop();  // rank-0 shard for `victim` is now gone

  ServeClient client = router.connect();
  const Response response = client.request(victim);
  ASSERT_EQ(response.status, StatusCode::kOk);  // served by the surviving shard
  EXPECT_EQ(fnv1a(response.artifact), response.digest);

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.no_backend, 0u);
  // fail_threshold is 1 in router_config: the single failed attempt opened
  // the dead shard's circuit.
  EXPECT_EQ(stats.backends[0].state, BackendState::kOpen);
  EXPECT_GE(stats.backends[0].counters.circuit_opened, 1u);
}

TEST(Router, AllShardsDeadYieldsTypedNoBackendNotAHang) {
  RunningBackend b0;
  RouterConfig config = router_config({b0.port()});
  config.attempt_deadline_ms = 1000;
  RunningRouter router(config);
  b0.stop();

  ServeClient client = router.connect();
  const auto t0 = std::chrono::steady_clock::now();
  const Response response = client.request(classify_request(6, ring_word(6)));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(response.status, StatusCode::kNoBackend);
  EXPECT_NE(response.artifact.find("no live backend"), std::string::npos);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);

  // The second request finds the circuit already open: no dial, instant
  // typed answer.
  const auto t1 = std::chrono::steady_clock::now();
  const Response again = client.request(classify_request(7, ring_word(7)));
  const auto fast = std::chrono::steady_clock::now() - t1;
  EXPECT_EQ(again.status, StatusCode::kNoBackend);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(fast).count(), 500);

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.no_backend, 2u);
}

TEST(Router, RetryNoBackendConsumesTheRetryBudget) {
  RunningBackend b0;
  RouterConfig config = router_config({b0.port()});
  config.attempt_deadline_ms = 500;
  RunningRouter router(config);
  b0.stop();

  ServeClient client = router.connect();
  ClientRetryPolicy policy;
  policy.max_retries = 2;
  policy.deadline_ms = 3000;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;
  policy.retry_no_backend = true;
  const RetryOutcome outcome = client.request_with_retry(classify_request(6, ring_word(6)),
                                                         policy);
  EXPECT_EQ(outcome.response.status, StatusCode::kNoBackend);
  EXPECT_EQ(outcome.retries, 2u);  // the budget was spent on NoBackend answers

  // Without opting in, NoBackend is terminal: no retries burned.
  ClientRetryPolicy no_opt_in = policy;
  no_opt_in.retry_no_backend = false;
  const RetryOutcome terminal =
      client.request_with_retry(classify_request(7, ring_word(7)), no_opt_in);
  EXPECT_EQ(terminal.response.status, StatusCode::kNoBackend);
  EXPECT_EQ(terminal.retries, 0u);
}

TEST(Router, CorruptArtifactsAreRejectedByDigestAndFailedOver) {
  ServeConfig corrupt_config;
  corrupt_config.faults.seed = 11;
  corrupt_config.faults.corrupt_response_every = 1;  // every artifact flips a byte
  RunningBackend corrupt(corrupt_config);
  RunningBackend clean;
  RouterConfig config = router_config({corrupt.port(), clean.port()});
  config.health.fail_threshold = 100;  // keep the corrupt shard admitted
  RunningRouter router(config);
  const Request victim = request_owned_by(router.router().pool(), 0);

  ServeClient client = router.connect();
  const Response response = client.request(victim);
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_EQ(fnv1a(response.artifact), response.digest);  // the clean shard's bytes

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.digest_rejected, 1u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
}

TEST(Router, HedgeBeatsAStalledPrimary) {
  ServeConfig stalled_config;
  stalled_config.faults.stall_every = 1;
  stalled_config.faults.stall_ms = 3000;  // every response sleeps 3 s
  RunningBackend stalled(stalled_config);
  RunningBackend fast;
  RouterConfig config = router_config({stalled.port(), fast.port()});
  config.health.fail_threshold = 100;
  config.hedge_delay_ms = 50;
  config.attempt_deadline_ms = 10000;
  RunningRouter router(config);
  const Request victim = request_owned_by(router.router().pool(), 0);

  {
    ServeClient client = router.connect();
    const auto t0 = std::chrono::steady_clock::now();
    const Response response = client.request(victim);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(fnv1a(response.artifact), response.digest);
    // The hedge answered way before the 3 s stall released the primary.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2500);
  }  // closing the connection joins the abandoned primary attempt

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.hedges_launched, 1u);
  EXPECT_GE(stats.hedges_won, 1u);
}

TEST(Router, DrainAnswersTypedDrainingThenExits) {
  RunningBackend b0;
  RunningRouter router(router_config({b0.port()}));
  ServeClient client = router.connect();
  const Response before = client.request(classify_request(6, ring_word(6)));
  ASSERT_EQ(before.status, StatusCode::kOk);

  router.router().begin_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const Response during = client.request(classify_request(7, ring_word(7)));
  EXPECT_EQ(during.status, StatusCode::kDraining);

  const RouterStats stats = router.stop();
  EXPECT_GE(stats.draining_rejected, 1u);
}

// ---- one connection layer: bccd and bccr alike ------------------------------

// The two servers on the shared connection layer, as the typed tests drive
// them: bccd alone, or bccr in front of one bccd. A non-empty unix_path puts
// the front on a Unix socket; otherwise it listens on an ephemeral TCP port.
struct BccdFront {
  explicit BccdFront(const std::string& unix_path = "") : daemon(config(unix_path)) {}
  static ServeConfig config(const std::string& unix_path) {
    ServeConfig config;
    config.unix_path = unix_path;
    return config;
  }
  // Binds a second server on unix_path.
  static void bind_another(const std::string& unix_path) { ServeServer(config(unix_path)).bind(); }
  std::uint16_t port() const { return daemon.port(); }
  ServeClient connect() { return ServeClient::connect_tcp(port()); }
  std::string render_stats() { return daemon.server().render_stats(); }
  ServeStats stop() { return daemon.stop(); }

  RunningBackend daemon;
};

struct BccrFront {
  explicit BccrFront(const std::string& unix_path = "")
      : router(config(backend.port(), unix_path)) {}
  static RouterConfig config(std::uint16_t backend_port, const std::string& unix_path) {
    RouterConfig config = router_config({backend_port});
    config.unix_path = unix_path;
    return config;
  }
  static void bind_another(const std::string& unix_path) {
    RouterServer(config(0, unix_path)).bind();
  }
  std::uint16_t port() const { return router.port(); }
  ServeClient connect() { return router.connect(); }
  std::string render_stats() { return router.router().render_stats(); }
  RouterStats stop() { return router.stop(); }

  RunningBackend backend;
  RunningRouter router;
};

struct FrontNames {
  template <typename Front>
  static std::string GetName(int) {
    return std::is_same_v<Front, BccdFront> ? "bccd" : "bccr";
  }
};

template <typename Front>
class BothServers : public ::testing::Test {};
using Fronts = ::testing::Types<BccdFront, BccrFront>;
TYPED_TEST_SUITE(BothServers, Fronts, FrontNames);

std::string socket_path(const char* tag) {
  return "/tmp/bcclb_router_test_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

// A framing-valid classify request whose payload exceeds max_request_bytes (64).
std::string oversized_frame() {
  std::string frame;
  frame.append(kWireMagic, sizeof kWireMagic);
  frame.push_back(static_cast<char>(kWireVersion));
  frame.push_back(static_cast<char>(RequestType::kClassify));
  frame.append(2, '\0');  // status
  const std::uint32_t len = 500;
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  frame.append(len, '\x7f');
  return frame;
}

// Writes `bytes` to 127.0.0.1:port and returns every byte the server sends
// back until it closes the connection (or 10 s pass).
std::string raw_exchange(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  std::string reply;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(bytes.size())) {
    char buf[4096];
    ssize_t r;
    while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) reply.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return reply;
}

// The value of one `name = value` line of a stats artifact.
std::uint64_t stat_value(const std::string& stats, const std::string& name) {
  const std::string prefix = name + " = ";
  const std::size_t at = stats.find("\n" + prefix);
  if (at == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + at + 1 + prefix.size(), nullptr, 10);
}

// The front's "responses ok" once it stops growing: a client that never
// reads has filled the unsent bound and the kernel buffers.
template <typename Front>
std::uint64_t wait_until_answers_stall(Front& front) {
  std::uint64_t last = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::uint64_t now = stat_value(front.render_stats(), "responses ok");
    if ((now == last && now > 0) || std::chrono::steady_clock::now() > deadline) return now;
    last = now;
  }
}

// Sends `bytes` on its own thread, since the send blocks once the server
// stops reading. Destruction shuts the write side, which ends a blocked send.
class BackgroundSend {
 public:
  BackgroundSend(ServeClient& client, std::string bytes)
      : client_(client), bytes_(std::move(bytes)), thread_([this] {
          try {
            client_.send_raw(bytes_);
          } catch (const ServeError&) {
          }
        }) {}
  ~BackgroundSend() {
    client_.shutdown_write();
    thread_.join();
  }
  BackgroundSend(const BackgroundSend&) = delete;
  BackgroundSend& operator=(const BackgroundSend&) = delete;

 private:
  ServeClient& client_;
  std::string bytes_;
  std::thread thread_;
};

// Hits whose answers, pipelined kFrames deep, overflow the unsent bound and
// the kernel's socket buffers several times over.
struct PipelinedHits {
  static constexpr std::size_t kFrames = 20000;
  const Request pool[4] = {rank_request('M', 4), indist_request(6), rank_request('M', 5),
                           indist_request(7)};
  std::vector<std::string> artifacts;  // filled by warm()
  std::string frames;

  // Builds every pool artifact through `client` (cold) and the request bytes.
  void warm(ServeClient& client) {
    std::size_t response_bytes = 0;
    for (const Request& request : pool) {
      const Response cold = client.request(request);
      ASSERT_EQ(cold.status, StatusCode::kOk);
      artifacts.push_back(cold.artifact);
    }
    for (std::size_t i = 0; i < kFrames; ++i) {
      frames += encode_request_frame(pool[i % 4]);
      response_bytes +=
          encode_ok_frame(pool[i % 4].type, CacheSource::kHit, 0, artifacts[i % 4]).size();
    }
    ASSERT_GT(response_bytes, 3 * FrameConn::kMaxUnsentBytes);
  }
};

TYPED_TEST(BothServers, OversizedFrameIsSkippedWithoutDroppingTheConnection) {
  TypeParam running;
  ServeClient client = running.connect();
  client.send_raw(oversized_frame());

  const Response bounced = client.read_response();
  EXPECT_EQ(bounced.status, StatusCode::kRequestTooLarge);

  // Framing survived the skip: the next well-formed request is served.
  const Response ok = client.request(rank_request('M', 5));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  EXPECT_EQ(running.stop().too_large, 1u);
}

TYPED_TEST(BothServers, BadMagicGetsOneErrorFrameThenClose) {
  TypeParam running;
  ServeClient client = running.connect();
  client.send_raw("GARBAGE BYTES THAT ARE NOT A FRAME");
  const Response error = client.read_response();
  EXPECT_EQ(error.status, StatusCode::kProtocolViolation);
  // The stream is unrecoverable, so the server closes after the flush.
  EXPECT_THROW(client.read_response(), ServeError);
  EXPECT_EQ(running.stop().protocol_violations, 1u);
}

TYPED_TEST(BothServers, UnixSocketReclaimsStaleFilesAndRefusesLiveOnes) {
  const std::string path = socket_path("reclaim");
  // A stale leftover (regular file here; nobody accepts on it) is reclaimed.
  { std::FILE* f = std::fopen(path.c_str(), "w"); ASSERT_NE(f, nullptr); std::fclose(f); }
  TypeParam running(path);
  ServeClient client = ServeClient::connect_unix(path);
  EXPECT_EQ(client.request(rank_request('M', 4)).status, StatusCode::kOk);

  // A second server on the same live socket must refuse to start.
  EXPECT_THROW(TypeParam::bind_another(path), ServeError);

  running.stop();
  // Drain removed the socket file.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TYPED_TEST(BothServers, DrainIsBoundedWithANeverReadingClient) {
  // A Unix socket keeps the kernel's share of the buffering near 200 KB
  // (loopback TCP may autotune to tens of MB and hide the server's bound).
  const std::string path = socket_path("drain");
  TypeParam front(path);
  ServeClient warm = ServeClient::connect_unix(path);
  PipelinedHits hits;
  hits.warm(warm);
  ServeClient reader = ServeClient::connect_unix(path);
  BackgroundSend send(reader, hits.frames);
  wait_until_answers_stall(front);

  auto stopped = std::async(std::launch::async, [&front] { front.stop(); });
  const bool bounded = stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(bounded) << "run() waited on a client that never reads";
  if (!bounded) {
    // Read everything so an unbounded drain can still finish.
    try {
      for (;;) reader.read_response(/*deadline_ms=*/5000);
    } catch (const ServeError&) {
    }
  }
  stopped.wait();
}

TEST(BothServers, FramingErrorFramesAreByteIdentical) {
  // RequestTooLarge for the oversized frame, then ProtocolViolation for the
  // bytes that are no frame, then close.
  const std::string malformed = oversized_frame() + "GARBAGE BYTES THAT ARE NOT A FRAME";
  BccdFront bccd;
  BccrFront bccr;
  const std::string from_bccd = raw_exchange(bccd.port(), malformed);
  ASSERT_FALSE(from_bccd.empty());
  EXPECT_EQ(raw_exchange(bccr.port(), malformed), from_bccd);
}

TEST(Router, NeverReadingClientIsBoundedAndStillServedInOrder) {
  const std::string path = socket_path("bound");
  BccrFront front(path);
  ServeClient reader = ServeClient::connect_unix(path);
  ServeClient other = ServeClient::connect_unix(path);
  PipelinedHits hits;
  hits.warm(other);
  std::uint64_t answered = 0;
  {
    BackgroundSend send(reader, hits.frames);
    answered = wait_until_answers_stall(front);
    EXPECT_LT(answered, PipelinedHits::kFrames + 4)
        << "the router answered every frame of a client that never read";

    // Meanwhile another connection is served.
    const Response probe = other.request(hits.pool[2]);
    ASSERT_EQ(probe.status, StatusCode::kOk);
    EXPECT_EQ(probe.source, CacheSource::kHit);
    EXPECT_EQ(probe.artifact, hits.artifacts[2]);

    // Reading resumes the parse; every response arrives, in request order.
    for (std::size_t i = 0; i < PipelinedHits::kFrames; ++i) {
      const Response response = reader.read_response(/*deadline_ms=*/30000);
      ASSERT_EQ(response.status, StatusCode::kOk) << "frame " << i;
      ASSERT_EQ(response.source, CacheSource::kHit) << "frame " << i;
      ASSERT_EQ(response.artifact, hits.artifacts[i % 4]) << "frame " << i;
    }
  }

  const RouterStats stats = front.stop();
  EXPECT_EQ(stats.responses_ok, PipelinedHits::kFrames + 5);
  EXPECT_GE(stats.unsent_pauses, 1u);
}

}  // namespace
}  // namespace bcclb
