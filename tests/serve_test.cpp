// bccd serving subsystem: wire codec, artifact cache, handlers, the daemon
// itself, and the load generator.
//
// The end-to-end tests run a real ServeServer on an ephemeral TCP port (or a
// Unix socket where the test is about the socket file) with the I/O loop on
// a background thread, and drive it through ServeClient — the same path
// `bcclb serve` / `bcclb loadgen` take. The scheduler's test_hold hook makes
// the overload and coalescing scenarios deterministic instead of racy.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "bcc/batch_runner.h"
#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "common/random.h"
#include "linalg/tiled_rank.h"
#include "search/engine.h"
#include "serve/artifact_cache.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/conn.h"
#include "serve/disk_store.h"
#include "serve/handlers.h"
#include "serve/loadgen.h"
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

Request sim_implicit_request(std::uint8_t family, std::uint32_t n, std::uint64_t seed) {
  Request r;
  r.type = RequestType::kSimImplicit;
  r.family = family;
  r.n = n;
  r.packed = seed;
  return r;
}

Request rank_tile_request(char field, std::uint32_t n, std::uint64_t tile_rows,
                          std::uint64_t tile_index) {
  Request r;
  r.type = RequestType::kRankTile;
  r.family = static_cast<std::uint8_t>(field);
  r.n = n;
  r.packed = (tile_rows << 32) | tile_index;
  return r;
}

Request best_strategy_request(char driver, std::uint32_t n, std::uint64_t rounds,
                              std::uint64_t buckets, std::uint64_t seed, std::uint64_t budget) {
  Request r;
  r.type = RequestType::kBestStrategy;
  r.family = static_cast<std::uint8_t>(driver);
  r.n = n;
  r.packed = (rounds << 56) | (buckets << 48) | (seed << 32) | budget;
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

// A released-once latch for ServeConfig::test_hold: the first scheduler pass
// blocks until release(); later passes fall straight through. Clearing
// `armed` first lets a test warm the cache through the scheduler before the
// latch engages.
struct SchedulerHold {
  std::mutex m;
  std::condition_variable cv;
  bool holding = false;
  bool released = false;
  std::atomic<bool> armed{true};

  std::function<void()> hook() {
    return [this] {
      if (!armed.load()) return;
      std::unique_lock<std::mutex> lock(m);
      holding = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void wait_until_held() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return holding; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(m);
    released = true;
    cv.notify_all();
  }
};

// The value of one `name = value` line of a bccd stats artifact.
std::uint64_t stat_value(const std::string& stats, const std::string& name) {
  const std::string prefix = name + " = ";
  const std::size_t at = stats.find("\n" + prefix);
  if (at == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + at + 1 + prefix.size(), nullptr, 10);
}

// Binds, runs the I/O loop on a background thread, drains on destruction.
class RunningServer {
 public:
  explicit RunningServer(ServeConfig config) : server_(std::move(config)) {
    server_.bind();
    thread_ = std::thread([this] { stats_ = server_.run(); });
  }
  ~RunningServer() {
    if (thread_.joinable()) {
      server_.begin_drain();
      thread_.join();
    }
  }
  ServeServer& server() { return server_; }
  ServeClient connect() { return ServeClient::connect_tcp(server_.tcp_port()); }
  ServeStats stop() {
    server_.begin_drain();
    thread_.join();
    return stats_;
  }

 private:
  ServeServer server_;
  std::thread thread_;
  ServeStats stats_;
};

// ---- wire codec ------------------------------------------------------------

TEST(Wire, RequestRoundTripsEveryType) {
  const Request requests[] = {
      [] { Request r; r.type = RequestType::kStats; return r; }(),
      classify_request(6, ring_word(6)),
      indist_request(7),
      rank_request('M', 5),
      rank_request('E', 8),
      [] {
        Request r;
        r.type = RequestType::kInfo;
        r.n = 6;
        r.keep_bits = 0x3fe0000000000000ULL;  // 0.5
        return r;
      }(),
      sim_implicit_request(1, 100, 2019),
      rank_tile_request('p', 7, 256, 2),
      best_strategy_request('e', 6, 1, 4, 2019, 96),
  };
  for (const Request& request : requests) {
    const std::string frame = encode_request_frame(request);
    const FrameHeader header = decode_frame_header(frame);
    EXPECT_EQ(header.version, kWireVersion);
    EXPECT_EQ(header.status, 0);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + header.payload_len);
    const Request decoded =
        decode_request(header.type, std::string_view(frame).substr(kFrameHeaderBytes));
    EXPECT_EQ(decoded, request) << "type " << static_cast<int>(request.type);
  }
}

TEST(Wire, OkAndErrorFramesRoundTrip) {
  const std::string artifact = "rank M_5 ...\nfull rank = yes\n";
  const std::string ok = encode_ok_frame(RequestType::kRank, CacheSource::kHit,
                                         fnv1a(artifact), artifact);
  const FrameHeader ok_header = decode_frame_header(ok);
  const Response ok_resp =
      decode_response(ok_header, std::string_view(ok).substr(kFrameHeaderBytes));
  EXPECT_EQ(ok_resp.status, StatusCode::kOk);
  EXPECT_EQ(ok_resp.source, CacheSource::kHit);
  EXPECT_EQ(ok_resp.artifact, artifact);
  EXPECT_EQ(ok_resp.digest, fnv1a(artifact));

  const std::string err =
      encode_error_frame(RequestType::kInfo, StatusCode::kQueueFull, "queue full");
  const FrameHeader err_header = decode_frame_header(err);
  const Response err_resp =
      decode_response(err_header, std::string_view(err).substr(kFrameHeaderBytes));
  EXPECT_EQ(err_resp.status, StatusCode::kQueueFull);
  EXPECT_EQ(err_resp.type, RequestType::kInfo);
  EXPECT_EQ(err_resp.artifact, "queue full");
}

TEST(Wire, RejectsBadMagicVersionAndTruncation) {
  std::string frame = encode_request_frame(rank_request('M', 4));
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_frame_header(bad_magic), ProtocolViolationError);

  std::string bad_version = frame;
  bad_version[4] = 9;
  EXPECT_THROW(decode_frame_header(bad_version), ProtocolViolationError);

  EXPECT_THROW(decode_frame_header(std::string_view(frame).substr(0, 5)),
               ProtocolViolationError);

  // Truncated and overlong payloads both fail decode_request.
  const std::string_view payload = std::string_view(frame).substr(kFrameHeaderBytes);
  EXPECT_THROW(decode_request(static_cast<std::uint8_t>(RequestType::kRank),
                              payload.substr(0, payload.size() - 1)),
               ProtocolViolationError);
  EXPECT_THROW(decode_request(static_cast<std::uint8_t>(RequestType::kRank),
                              std::string(payload) + "x"),
               ProtocolViolationError);
  EXPECT_THROW(decode_request(99, payload), ProtocolViolationError);
}

TEST(Wire, ValidatesParameterRanges) {
  const auto decode = [](const Request& request) {
    const std::string payload = encode_request_payload(request);
    return decode_request(static_cast<std::uint8_t>(request.type), payload);
  };
  EXPECT_THROW(decode(classify_request(17, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(classify_request(2, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(indist_request(kMinIndistN - 1)), ProtocolViolationError);
  EXPECT_THROW(decode(indist_request(kMaxIndistN + 1)), ProtocolViolationError);
  EXPECT_THROW(decode(rank_request('X', 4)), ProtocolViolationError);
  EXPECT_THROW(decode(rank_request('M', kMaxRankMN + 1)), ProtocolViolationError);
  EXPECT_THROW(decode(rank_request('E', 7)), ProtocolViolationError);  // odd
  Request info;
  info.type = RequestType::kInfo;
  info.n = 4;
  info.keep_bits = 0x4000000000000000ULL;  // 2.0
  EXPECT_THROW(decode(info), ProtocolViolationError);
  info.keep_bits = 0x7ff8000000000000ULL;  // NaN
  EXPECT_THROW(decode(info), ProtocolViolationError);
  // sim-implicit: unknown family byte, and n outside the serving range.
  EXPECT_THROW(decode(sim_implicit_request(4, 100, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(sim_implicit_request(0, kMinSimImplicitN - 1, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(sim_implicit_request(0, kMaxSimImplicitN + 1, 0)), ProtocolViolationError);
  // rank-tile: bad field byte, n / tile_rows outside the range, and a tile
  // index past the last tile of M_n (B_7 = 877 -> 4 tiles of 256).
  EXPECT_THROW(decode(rank_tile_request('M', 7, 256, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(rank_tile_request('p', kMaxRankMN + 1, 256, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(rank_tile_request('p', 7, 0, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(rank_tile_request('p', 7, kMaxRankTileRows + 1, 0)),
               ProtocolViolationError);
  EXPECT_THROW(decode(rank_tile_request('p', 7, 256, 4)), ProtocolViolationError);
  EXPECT_EQ(decode(rank_tile_request('p', 7, 256, 3)).n, 7u);
  // best-strategy: bad driver byte, n / rounds / buckets / budget outside the
  // serving ranges, and an exhaustive cell whose space is too large to build
  // interactively (rounds*buckets must stay <= 6 with buckets <= 4).
  EXPECT_THROW(decode(best_strategy_request('z', 6, 1, 4, 1, 32)), ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', kMinSearchN - 1, 1, 4, 1, 32)),
               ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', kMaxSearchN + 1, 1, 4, 1, 32)),
               ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', 6, 0, 4, 1, 32)), ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', 6, kMaxSearchRounds + 1, 4, 1, 32)),
               ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', 6, 1, 0, 1, 32)), ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', 6, 1, kMaxSearchBuckets + 1, 1, 32)),
               ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', 6, 1, 4, 1, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('e', 6, 1, 4, 1, kMaxSearchBudget + 1)),
               ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('x', 6, 2, 4, 1, 0)), ProtocolViolationError);
  EXPECT_THROW(decode(best_strategy_request('x', 6, 1, 8, 1, 0)), ProtocolViolationError);
  EXPECT_EQ(decode(best_strategy_request('x', 6, 1, 4, 1, 0)).n, 6u);
  EXPECT_EQ(decode(best_strategy_request('e', 7, 2, 8, 65535, 512)).n, 7u);
}

TEST(Wire, CacheKeyIsContentAddressed) {
  EXPECT_EQ(request_cache_key(rank_request('M', 5)), request_cache_key(rank_request('M', 5)));
  EXPECT_NE(request_cache_key(rank_request('M', 5)), request_cache_key(rank_request('M', 6)));
  EXPECT_NE(request_cache_key(rank_request('M', 6)), request_cache_key(rank_request('E', 6)));
  EXPECT_NE(request_cache_key(indist_request(6)), request_cache_key(rank_request('M', 6)));
}

// ---- artifact cache --------------------------------------------------------

TEST(ArtifactCache, LruEvictsUnderByteBudget) {
  // Budget fits exactly two entries of (100 + overhead) bytes.
  ArtifactCache cache(2 * (100 + ArtifactCache::kEntryOverheadBytes));
  cache.insert(1, std::string(100, 'a'));
  cache.insert(2, std::string(100, 'b'));
  ASSERT_TRUE(cache.lookup(1).has_value());  // 1 is now most-recent
  cache.insert(3, std::string(100, 'c'));    // evicts 2, the LRU entry
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
}

TEST(ArtifactCache, OversizedEntryIsNeverCached) {
  ArtifactCache cache(64);
  cache.insert(1, std::string(1000, 'x'));
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCache, HitVerifiesDigestAndDropsCorruptEntries) {
  ArtifactCache cache(1 << 20);
  cache.insert(7, "pristine artifact bytes");
  ASSERT_TRUE(cache.lookup(7).has_value());
  ASSERT_TRUE(cache.corrupt_entry_for_test(7));
  // The corrupt entry must not be served: it counts as a verify failure and
  // a miss, and the entry is gone so the next insert rebuilds it.
  EXPECT_FALSE(cache.lookup(7).has_value());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.verify_failures, 1u);
  EXPECT_EQ(stats.entries, 0u);
  cache.insert(7, "pristine artifact bytes");
  EXPECT_TRUE(cache.lookup(7).has_value());
}

TEST(ArtifactCache, BudgetResolutionPrecedence) {
  EXPECT_EQ(resolve_cache_budget(12345), 12345u);
  ASSERT_EQ(setenv("BCCLB_MEM_BUDGET", "2M", 1), 0);
  EXPECT_EQ(resolve_cache_budget(0), 2u << 20);
  ASSERT_EQ(unsetenv("BCCLB_MEM_BUDGET"), 0);
  EXPECT_EQ(resolve_cache_budget(0), 64ULL << 20);
}

// ---- handlers --------------------------------------------------------------

TEST(Handlers, ClassifyVerdictsAndValidation) {
  const std::string one = classify_artifact(6, ring_word(6));
  EXPECT_NE(one.find("ONE-CYCLE"), std::string::npos);
  // Two triangles: 0->1->2->0 and 3->4->5->3 (successor nibbles, v0 lowest).
  const std::uint64_t two = 0x354021;
  const std::string two_art = classify_artifact(6, two);
  EXPECT_NE(two_art.find("TWO-CYCLE"), std::string::npos);

  // The identity word has six fixed points: cycles of length 1.
  std::uint64_t identity = 0;
  for (std::uint32_t v = 0; v < 6; ++v) identity |= static_cast<std::uint64_t>(v) << (4 * v);
  EXPECT_THROW(classify_artifact(6, identity), ProtocolViolationError);
  // Not a permutation: two vertices share a successor.
  EXPECT_THROW(classify_artifact(6, 0x111111), ProtocolViolationError);
  // Bits set beyond vertex n-1.
  EXPECT_THROW(classify_artifact(6, ring_word(6) | (std::uint64_t{0xF} << 60)),
               ProtocolViolationError);
}

TEST(Handlers, ArtifactsAreBitIdenticalAcrossThreadWidths) {
  Request request = indist_request(7);
  const std::string serial = compute_artifact(request, 1);
  const std::string parallel = compute_artifact(request, 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("star packing"), std::string::npos);
  EXPECT_NE(serial.find("csr digest"), std::string::npos);
}

TEST(Handlers, RankAndInfoArtifactsCarryTheCertificates) {
  const std::string rank_m = rank_artifact('M', 5);
  EXPECT_NE(rank_m.find("full rank = yes"), std::string::npos);
  const std::string rank_e = rank_artifact('E', 8);
  EXPECT_NE(rank_e.find("rank E_8"), std::string::npos);
  const std::string info = info_artifact(5, 1.0);
  EXPECT_NE(info.find("Theorem 4.5"), std::string::npos);
}

TEST(Handlers, SimImplicitVerdictsAndDeterminism) {
  // One cycle is connected, two cycles are not; the artifact carries the
  // verdict and the labels digest but no timing fields.
  const std::string one = sim_implicit_artifact(0, 100, 2019, 1);
  EXPECT_NE(one.find("decision = YES"), std::string::npos);
  EXPECT_NE(one.find("correct = yes"), std::string::npos);
  const std::string two = sim_implicit_artifact(1, 100, 2019, 1);
  EXPECT_NE(two.find("components found = 2, expected = 2"), std::string::npos);
  EXPECT_NE(two.find("decision = NO"), std::string::npos);
  EXPECT_NE(two.find("labels digest"), std::string::npos);
  EXPECT_EQ(two.find("rounds/sec"), std::string::npos);

  // Bit-identical across worker thread widths (the cache-soundness contract).
  EXPECT_EQ(two, sim_implicit_artifact(1, 100, 2019, 8));
  Request request = sim_implicit_request(1, 100, 2019);
  EXPECT_EQ(compute_artifact(request, 1), two);

  // Passed wire validation but fails the per-family constraint.
  EXPECT_THROW(sim_implicit_artifact(2, 8, 0, 1), ProtocolViolationError);
}

TEST(Handlers, RankTileMatchesTheTiledEngineAndThreadWidths) {
  // The artifact is a pure function of (field, n, tile_rows, tile_index):
  // byte-identical across worker widths, and its digest line matches a
  // directly generated tile.
  const Request request = rank_tile_request('p', 6, 64, 1);
  const std::string serial = compute_artifact(request, 1);
  EXPECT_EQ(serial, compute_artifact(request, 4));
  const JoinTile tile = generate_join_tile(6, 64, 128, 1);
  EXPECT_NE(serial.find(digest_hex(tile.digest)), std::string::npos);
  EXPECT_NE(serial.find("rows = [64, 128) of 203"), std::string::npos);

  // A whole-matrix "tile" of M_6 reproduces the predicted ranks: full B_6 = 203
  // over mod p, 2^5 = 32 over GF(2).
  const std::string whole_p = compute_artifact(rank_tile_request('p', 6, 203, 0), 1);
  EXPECT_NE(whole_p.find("tile rank = 203 / 203"), std::string::npos);
  const std::string whole_2 = compute_artifact(rank_tile_request('2', 6, 203, 0), 1);
  EXPECT_NE(whole_2.find("tile rank = 32 / 203"), std::string::npos);
}

TEST(Handlers, BestStrategyMatchesADirectSearchRunAndThreadWidths) {
  // The handler is a pure function of the request: byte-identical across
  // worker widths, and exactly the rendered artifact of the equivalent
  // run_search call (the cell's parameters all travel in the request).
  const Request request = best_strategy_request('e', 6, 1, 4, 2019, 48);
  const std::string serial = compute_artifact(request, 1);
  EXPECT_EQ(serial, compute_artifact(request, 4));

  SearchConfig config;
  config.n = 6;
  config.rounds = 1;
  config.buckets = 4;
  config.seed = 2019;
  config.budget = 48;
  config.driver = SearchDriver::kEvolution;
  EXPECT_EQ(serial, render_search_artifact(config, run_search(config)));
  EXPECT_NE(serial.find("bound-respected yes"), std::string::npos) << serial;

  // The exhaustive driver through the same pipe: the ground-truth cell.
  const std::string truth = compute_artifact(best_strategy_request('x', 6, 1, 2, 0, 0), 1);
  EXPECT_NE(truth.find("driver exhaustive"), std::string::npos);
  EXPECT_NE(truth.find("evaluated 36"), std::string::npos);
}

TEST(ServeServer, BestStrategyServesWarmAndColdByteIdentically) {
  RunningServer running({});
  ServeClient client = running.connect();
  const Request request = best_strategy_request('r', 6, 1, 4, 7, 32);

  const Response cold = client.request(request);
  ASSERT_EQ(cold.status, StatusCode::kOk);
  EXPECT_EQ(cold.source, CacheSource::kCold);
  EXPECT_EQ(cold.digest, fnv1a(cold.artifact));
  EXPECT_NE(cold.artifact.find("bcclb search artifact v1"), std::string::npos);
  EXPECT_NE(cold.artifact.find("driver random seed 7 budget 32"), std::string::npos);
  EXPECT_NE(cold.artifact.find("bound-respected yes"), std::string::npos);

  const Response warm = client.request(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_EQ(warm.source, CacheSource::kHit);
  EXPECT_EQ(warm.artifact, cold.artifact);
  (void)running.stop();
}

TEST(ServeServer, RankTileServesAndCachesEndToEnd) {
  RunningServer running({});
  ServeClient client = running.connect();
  const Request request = rank_tile_request('p', 7, 256, 1);

  const Response cold = client.request(request);
  ASSERT_EQ(cold.status, StatusCode::kOk);
  EXPECT_EQ(cold.source, CacheSource::kCold);
  EXPECT_EQ(cold.digest, fnv1a(cold.artifact));
  EXPECT_NE(cold.artifact.find("rank-tile M_7 field=modp tile=1/4"), std::string::npos);
  EXPECT_NE(cold.artifact.find("rows = [256, 512) of 877"), std::string::npos);

  const Response warm = client.request(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_EQ(warm.source, CacheSource::kHit);
  EXPECT_EQ(warm.artifact, cold.artifact);
  (void)running.stop();
}

// ---- errors ----------------------------------------------------------------

TEST(ServeErrors, TaxonomyKindsAndTransience) {
  const QueueFullError queue_full("q");
  EXPECT_STREQ(queue_full.kind(), "QueueFullError");
  EXPECT_TRUE(queue_full.transient());  // retry after backoff is sane
  const RequestTooLargeError too_large("t");
  EXPECT_STREQ(too_large.kind(), "RequestTooLargeError");
  EXPECT_FALSE(too_large.transient());
  const ProtocolViolationError proto("p");
  EXPECT_STREQ(proto.kind(), "ProtocolViolationError");
  const DrainingError draining("d");
  EXPECT_STREQ(draining.kind(), "DrainingError");
  const ServeError* as_base = &queue_full;
  EXPECT_NE(dynamic_cast<const BcclbError*>(as_base), nullptr);
}

TEST(ServeErrors, ClientTaxonomyKindsAndTransience) {
  const ClientTimeoutError timeout("t");
  EXPECT_STREQ(timeout.kind(), "ClientTimeoutError");
  EXPECT_TRUE(timeout.transient());  // the retry loop keys off this
  const ConnectionLostError lost("l");
  EXPECT_STREQ(lost.kind(), "ConnectionLostError");
  EXPECT_TRUE(lost.transient());
  const ServerReportedError reported("r", static_cast<std::uint16_t>(StatusCode::kDraining));
  EXPECT_STREQ(reported.kind(), "ServerReportedError");
  EXPECT_FALSE(reported.transient());
  EXPECT_EQ(reported.wire_status(), static_cast<std::uint16_t>(StatusCode::kDraining));
  // All three are catchable as ServeClientError and as ServeError.
  const ServeClientError* as_client = &timeout;
  EXPECT_NE(dynamic_cast<const ServeError*>(as_client), nullptr);
}

// ---- decode fuzz -----------------------------------------------------------

// Seeded mutation fuzz over the client-side decode path: truncations, bit
// flips in header and payload, and oversized length fields must either decode
// (possibly to junk a digest check would catch) or throw exactly
// ProtocolViolationError — never another exception type, never a crash.
TEST(WireFuzz, MutatedFramesOnlyEverThrowProtocolViolation) {
  std::vector<std::string> corpus;
  corpus.push_back(encode_request_frame(classify_request(6, ring_word(6))));
  corpus.push_back(encode_request_frame(indist_request(7)));
  corpus.push_back(encode_request_frame(rank_request('E', 8)));
  corpus.push_back(encode_request_frame(sim_implicit_request(1, 100, 2019)));
  const std::string artifact = "rank M_5 ...\nfull rank = yes\n";
  corpus.push_back(
      encode_ok_frame(RequestType::kRank, CacheSource::kCold, fnv1a(artifact), artifact));
  corpus.push_back(
      encode_error_frame(RequestType::kInfo, StatusCode::kQueueFull, "admission queue full"));

  Rng rng(0xf0a22edULL);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame = corpus[rng.next_below(corpus.size())];
    switch (rng.next_below(3)) {
      case 0:  // truncate anywhere, including inside the header
        frame.resize(rng.next_below(frame.size() + 1));
        break;
      case 1: {  // flip one bit anywhere
        if (!frame.empty()) {
          frame[rng.next_below(frame.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      }
      default: {  // oversize or shrink the length field
        if (frame.size() >= kFrameHeaderBytes) {
          const std::uint32_t bogus = static_cast<std::uint32_t>(rng.next_u64());
          for (int i = 0; i < 4; ++i) {
            frame[8 + i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
          }
        }
        break;
      }
    }
    try {
      const FrameHeader header = decode_frame_header(frame);
      std::string_view payload = std::string_view(frame).substr(
          std::min<std::size_t>(kFrameHeaderBytes, frame.size()));
      payload = payload.substr(0, std::min<std::size_t>(payload.size(), header.payload_len));
      if (rng.next_bool()) {
        decode_request(header.type, payload);
      } else {
        decode_response(header, payload);
      }
    } catch (const ProtocolViolationError&) {
      // The one acceptable outcome for malformed bytes.
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " threw " << typeid(e).name() << ": " << e.what();
    }
  }
}

// ---- end-to-end server ----------------------------------------------------

TEST(ServeServer, AnswersAndCachesWithByteIdenticalRepeats) {
  RunningServer running({});
  ServeClient client = running.connect();
  const Request request = rank_request('M', 6);

  const Response cold = client.request(request);
  ASSERT_EQ(cold.status, StatusCode::kOk);
  EXPECT_EQ(cold.source, CacheSource::kCold);
  EXPECT_EQ(cold.digest, fnv1a(cold.artifact));
  EXPECT_NE(cold.artifact.find("rank M_6"), std::string::npos);

  const Response warm = client.request(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_EQ(warm.source, CacheSource::kHit);
  // Acceptance: a repeated digest-addressed response is byte-identical to
  // the cold computation.
  EXPECT_EQ(warm.artifact, cold.artifact);
  EXPECT_EQ(warm.digest, cold.digest);

  // A second connection sees the same bytes.
  ServeClient other = running.connect();
  const Response again = other.request(request);
  EXPECT_EQ(again.artifact, cold.artifact);
  EXPECT_EQ(again.source, CacheSource::kHit);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.responses_ok, 3u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.connections_accepted, 2u);
}

TEST(ServeServer, StatsProbeAnswersInline) {
  RunningServer running({});
  ServeClient client = running.connect();
  Request probe;
  probe.type = RequestType::kStats;
  const Response response = client.request(probe);
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_NE(response.artifact.find("bccd stats"), std::string::npos);
  EXPECT_NE(response.artifact.find("cache hits"), std::string::npos);
  EXPECT_EQ(running.stop().stats_probes, 1u);
}

TEST(ServeServer, WarmCacheP50IsTenTimesFasterThanCold) {
  using clock = std::chrono::steady_clock;
  RunningServer running({});
  ServeClient client = running.connect();
  const Request request = indist_request(8);  // the E3 n=8 workload

  const auto cold_start = clock::now();
  const Response cold = client.request(request);
  const double cold_ms =
      std::chrono::duration<double, std::milli>(clock::now() - cold_start).count();
  ASSERT_EQ(cold.status, StatusCode::kOk);
  ASSERT_EQ(cold.source, CacheSource::kCold);

  std::vector<double> warm_ms;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = clock::now();
    const Response warm = client.request(request);
    warm_ms.push_back(std::chrono::duration<double, std::milli>(clock::now() - t0).count());
    ASSERT_EQ(warm.source, CacheSource::kHit);
    ASSERT_EQ(warm.artifact, cold.artifact);
  }
  std::sort(warm_ms.begin(), warm_ms.end());
  const double warm_p50 = warm_ms[warm_ms.size() / 2];
  EXPECT_GT(cold_ms, 10.0 * warm_p50)
      << "cold " << cold_ms << " ms vs warm p50 " << warm_p50 << " ms";
}

TEST(ServeServer, OverloadReturnsTypedQueueFullAndConnectionSurvives) {
  SchedulerHold hold;
  ServeConfig config;
  config.queue_capacity = 2;
  config.test_hold = hold.hook();
  RunningServer running(std::move(config));
  ServeClient client = running.connect();

  // r1 wakes the scheduler, which parks in the hold *before* draining the
  // queue; r2 tops the queue off at capacity; r3 must bounce.
  client.send_frame(rank_request('M', 4));
  hold.wait_until_held();
  client.send_frame(rank_request('M', 5));
  client.send_frame(rank_request('M', 6));

  const Response bounced = client.read_response();
  EXPECT_EQ(bounced.status, StatusCode::kQueueFull);
  EXPECT_NE(bounced.artifact.find("admission queue full"), std::string::npos);

  hold.release();
  const Response first = client.read_response();
  const Response second = client.read_response();
  EXPECT_EQ(first.status, StatusCode::kOk);
  EXPECT_EQ(second.status, StatusCode::kOk);
  EXPECT_NE(first.artifact.find("rank M_4"), std::string::npos);
  EXPECT_NE(second.artifact.find("rank M_5"), std::string::npos);

  // The connection that got bounced keeps working.
  const Response retry = client.request(rank_request('M', 6));
  EXPECT_EQ(retry.status, StatusCode::kOk);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.queue_full, 1u);
  EXPECT_EQ(stats.responses_ok, 3u);
}

TEST(ServeServer, DrainFinishesInFlightAndRejectsNewRequests) {
  SchedulerHold hold;
  ServeConfig config;
  config.test_hold = hold.hook();
  RunningServer running(std::move(config));
  ServeClient client = running.connect();

  client.send_frame(rank_request('M', 5));
  hold.wait_until_held();
  running.server().begin_drain();
  client.send_frame(rank_request('M', 6));  // arrives while draining

  const Response rejected = client.read_response();
  EXPECT_EQ(rejected.status, StatusCode::kDraining);

  hold.release();
  // The admitted request still completes — drain finishes in-flight work.
  const Response served = client.read_response();
  EXPECT_EQ(served.status, StatusCode::kOk);
  EXPECT_NE(served.artifact.find("rank M_5"), std::string::npos);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.draining_rejected, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
}

TEST(ServeServer, ConcurrentIdenticalRequestsCoalesceIntoOneBuild) {
  SchedulerHold hold;
  ServeConfig config;
  config.test_hold = hold.hook();
  RunningServer running(std::move(config));
  ServeClient client = running.connect();

  const Request request = indist_request(7);
  client.send_frame(request);
  hold.wait_until_held();
  for (int i = 0; i < 4; ++i) client.send_frame(request);
  // Release only once the I/O thread has queued all five, so they share the
  // held batch; a frame admitted after the release would be a memory hit.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (running.server().render_stats().find("requests admitted = 5\n") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hold.release();

  std::vector<Response> responses;
  for (int i = 0; i < 5; ++i) responses.push_back(client.read_response());
  std::size_t cold = 0, coalesced = 0;
  for (const Response& response : responses) {
    ASSERT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.artifact, responses[0].artifact);
    if (response.source == CacheSource::kCold) ++cold;
    if (response.source == CacheSource::kCoalesced) ++coalesced;
  }
  EXPECT_EQ(cold, 1u);
  EXPECT_EQ(coalesced, 4u);
  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_EQ(stats.cache.entries, 1u);
}

TEST(ServeServer, MemoryHitAnsweredWhileSchedulerParked) {
  SchedulerHold hold;
  hold.armed = false;
  ServeConfig config;
  config.test_hold = hold.hook();
  RunningServer running(std::move(config));
  ServeClient a = running.connect();
  ServeClient b = running.connect();
  const Request cached = rank_request('M', 5);
  ASSERT_EQ(b.request(cached).source, CacheSource::kCold);

  // A's miss parks the scheduler; B's hit must not need it.
  hold.armed = true;
  a.send_frame(rank_request('M', 6));
  hold.wait_until_held();
  b.send_frame(cached);
  std::optional<Response> hit;
  try {
    hit = b.read_response(/*deadline_ms=*/5000);
  } catch (const ClientTimeoutError&) {
  }
  hold.release();
  ASSERT_TRUE(hit.has_value()) << "the hit waited for the parked scheduler";
  ASSERT_EQ(hit->status, StatusCode::kOk);
  EXPECT_EQ(hit->source, CacheSource::kHit);
  EXPECT_EQ(hit->digest, fnv1a(hit->artifact));
  EXPECT_NE(hit->artifact.find("rank M_5"), std::string::npos);

  const Response miss = a.read_response();
  ASSERT_EQ(miss.status, StatusCode::kOk);
  EXPECT_EQ(miss.source, CacheSource::kCold);
  EXPECT_NE(miss.artifact.find("rank M_6"), std::string::npos);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.responses_ok, 3u);
}

TEST(ServeServer, PipelinedHitBehindMissKeepsRequestOrder) {
  SchedulerHold hold;
  hold.armed = false;
  ServeConfig config;
  config.test_hold = hold.hook();
  RunningServer running(std::move(config));
  ServeClient client = running.connect();
  const Request cached = rank_request('M', 5);
  ASSERT_EQ(client.request(cached).source, CacheSource::kCold);

  hold.armed = true;
  client.send_frame(rank_request('M', 6));
  hold.wait_until_held();
  client.send_frame(cached);
  // Release only once the hit frame has been read behind the held miss.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stat_value(running.server().render_stats(), "requests admitted") < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hold.release();

  const Response first = client.read_response();
  const Response second = client.read_response();
  ASSERT_EQ(first.status, StatusCode::kOk);
  ASSERT_EQ(second.status, StatusCode::kOk);
  EXPECT_NE(first.artifact.find("rank M_6"), std::string::npos);
  EXPECT_EQ(first.source, CacheSource::kCold);
  EXPECT_NE(second.artifact.find("rank M_5"), std::string::npos);
  EXPECT_EQ(second.source, CacheSource::kHit);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
}

TEST(ServeServer, NeverReadingClientIsBoundedAndStillServedInOrder) {
  // A Unix socket keeps the kernel's share of the buffering near 200 KB
  // (loopback TCP may autotune to tens of MB and hide the daemon's bound).
  const std::string path =
      "/tmp/bcclb_serve_test_bound_" + std::to_string(::getpid()) + ".sock";
  ServeConfig config;
  config.unix_path = path;
  RunningServer running(std::move(config));
  ServeClient reader = ServeClient::connect_unix(path);
  ServeClient other = ServeClient::connect_unix(path);

  const Request pool[] = {rank_request('M', 4), indist_request(6), rank_request('M', 5),
                          indist_request(7)};
  std::vector<std::string> artifacts;
  for (const Request& request : pool) {
    const Response cold = other.request(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    artifacts.push_back(cold.artifact);
  }

  constexpr std::size_t kFrames = 20000;
  std::string frames;
  std::size_t response_bytes = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const Request& request = pool[i % 4];
    frames += encode_request_frame(request);
    response_bytes += encode_ok_frame(request.type, CacheSource::kHit, 0, artifacts[i % 4]).size();
  }
  // The answers must not fit in the bound plus the kernel buffers.
  ASSERT_GT(response_bytes, 3 * FrameConn::kMaxUnsentBytes);

  // The send blocks once the daemon stops reading, so it runs on its own
  // thread; this thread reads nothing until the daemon has stopped. If an
  // assertion below fails first, shutting the write side ends the send.
  std::thread sender([&] {
    try {
      reader.send_raw(frames);
    } catch (const ServeError&) {
    }
  });
  struct JoinSender {
    std::thread& thread;
    ServeClient& client;
    ~JoinSender() {
      client.shutdown_write();
      thread.join();
    }
  } join_sender{sender, reader};
  std::uint64_t served = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const std::uint64_t now = stat_value(running.server().render_stats(), "cache hits");
    if ((now == served && now > 0) || std::chrono::steady_clock::now() > deadline) break;
    served = now;
  }
  EXPECT_LT(served, kFrames) << "the daemon answered every frame of a client that never read";

  // Meanwhile another connection is served.
  const Response probe = other.request(pool[2]);
  ASSERT_EQ(probe.status, StatusCode::kOk);
  EXPECT_EQ(probe.source, CacheSource::kHit);
  EXPECT_EQ(probe.artifact, artifacts[2]);

  // Reading resumes the parse; every response arrives, in request order.
  for (std::size_t i = 0; i < kFrames; ++i) {
    const Response response = reader.read_response(/*deadline_ms=*/30000);
    ASSERT_EQ(response.status, StatusCode::kOk) << "frame " << i;
    ASSERT_EQ(response.source, CacheSource::kHit) << "frame " << i;
    ASSERT_EQ(response.artifact, artifacts[i % 4]) << "frame " << i;
  }

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.cache.hits, kFrames + 1);
  EXPECT_EQ(stats.cache.misses, 4u);
  EXPECT_EQ(stats.responses_ok, kFrames + 5);
  EXPECT_GE(stats.unsent_pauses, 1u);
}

TEST(ServeServer, SemanticComputeFailureIsTypedAndNonFatal) {
  RunningServer running({});
  ServeClient client = running.connect();
  // Passes wire validation (n in range) but the word has 2-cycles.
  const std::uint64_t two_cycles_of_two = 0x2301;  // 0<->1, 2<->3
  const Response failed = client.request(classify_request(4, two_cycles_of_two));
  EXPECT_EQ(failed.status, StatusCode::kProtocolViolation);
  EXPECT_NE(failed.artifact.find("length"), std::string::npos);

  const Response ok = client.request(classify_request(4, ring_word(4)));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.compute_failed, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
}

// ---- durable tier + hardened client ---------------------------------------

// Fresh store directory per test, removed on destruction.
struct TempStoreDir {
  std::string path;
  TempStoreDir() {
    char tmpl[] = "/tmp/bcclb_serve_store_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~TempStoreDir() {
    if (path.empty()) return;
    const std::string cleanup = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  }
};

TEST(ServeServer, RestartWarmsFromDiskWithByteIdenticalResponses) {
  TempStoreDir store;
  const Request request = rank_request('M', 6);
  std::string cold_artifact;
  std::uint64_t cold_digest = 0;
  {
    ServeConfig config;
    config.store_dir = store.path;
    RunningServer running(std::move(config));
    ServeClient client = running.connect();
    const Response cold = client.request(request);
    ASSERT_EQ(cold.status, StatusCode::kOk);
    EXPECT_EQ(cold.source, CacheSource::kCold);
    cold_artifact = cold.artifact;
    cold_digest = cold.digest;
    const ServeStats stats = running.stop();
    EXPECT_EQ(stats.disk.writes, 1u);
  }
  // A brand-new daemon over the same store: the memory cache is empty, but
  // the first request is served from disk, byte-identical, digest-proven.
  ServeConfig config;
  config.store_dir = store.path;
  RunningServer running(std::move(config));
  ServeClient client = running.connect();
  const Response warm = client.request(request);
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_EQ(warm.source, CacheSource::kDisk);
  EXPECT_EQ(warm.artifact, cold_artifact);
  EXPECT_EQ(warm.digest, cold_digest);
  // The disk hit filled tier 1: the next repeat is a plain memory hit.
  const Response hot = client.request(request);
  EXPECT_EQ(hot.source, CacheSource::kHit);
  EXPECT_EQ(hot.artifact, cold_artifact);
  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.disk.hits, 1u);
  EXPECT_EQ(stats.disk.quarantined, 0u);
}

TEST(ServeServer, CorruptDiskEntryIsQuarantinedAndRecomputedEndToEnd) {
  TempStoreDir store;
  const Request request = rank_request('M', 5);
  ServeConfig config;
  config.store_dir = store.path;
  config.cache_budget_bytes = 1;  // tier 1 keeps nothing: every hit is disk's
  RunningServer running(std::move(config));
  ServeClient client = running.connect();

  const Response cold = client.request(request);
  ASSERT_EQ(cold.status, StatusCode::kOk);
  ASSERT_NE(running.server().disk_store(), nullptr);
  ASSERT_TRUE(running.server().disk_store()->corrupt_entry_for_test(
      request_cache_key(request)));

  // The rotted entry must not be served: the daemon quarantines, recomputes,
  // and the client still gets the exact bytes of the original build.
  const Response recomputed = client.request(request);
  ASSERT_EQ(recomputed.status, StatusCode::kOk);
  EXPECT_EQ(recomputed.source, CacheSource::kCold);
  EXPECT_EQ(recomputed.artifact, cold.artifact);
  EXPECT_EQ(recomputed.digest, cold.digest);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.disk.quarantined, 1u);
  EXPECT_GE(stats.disk.writes, 2u);  // original + recompute
}

TEST(ServeClient, DeadlineExpiryThrowsTypedTimeout) {
  SchedulerHold hold;
  ServeConfig config;
  config.test_hold = hold.hook();
  RunningServer running(std::move(config));
  ServeClient client = running.connect();

  // Park the scheduler so no response can arrive, then require one in 50 ms.
  client.send_frame(rank_request('M', 4));
  hold.wait_until_held();
  ClientRetryPolicy policy;
  policy.deadline_ms = 50;
  EXPECT_THROW(client.request_with_retry(rank_request('M', 5), policy), ClientTimeoutError);
  EXPECT_FALSE(client.connected());  // the poisoned stream was dropped
  hold.release();
}

TEST(ServeClient, ReconnectOnEofRidesOutADaemonRestart) {
  TempStoreDir store;
  const std::string path =
      "/tmp/bcclb_serve_retry_" + std::to_string(::getpid()) + ".sock";
  const Request request = rank_request('E', 6);
  std::string first_artifact;
  ServeConfig config;
  config.unix_path = path;
  config.store_dir = store.path;
  auto running = std::make_unique<RunningServer>(std::move(config));
  ServeClient client = ServeClient::connect_unix(path);
  {
    const Response first = client.request(request);
    ASSERT_EQ(first.status, StatusCode::kOk);
    first_artifact = first.artifact;
  }
  // Kill the daemon (drain closes every connection and the socket), then
  // bring up a fresh one on the same endpoint and store. Destroy the old
  // instance first so its teardown cannot race the new bind on the path.
  running->stop();
  running.reset();
  ServeConfig second;
  second.unix_path = path;
  second.store_dir = store.path;
  running = std::make_unique<RunningServer>(std::move(second));

  // The client still holds the dead connection. The hardened path notices
  // (EOF / reset), reconnects to the remembered endpoint, and the new daemon
  // answers from the durable tier with the same bytes.
  ClientRetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 8;
  const RetryOutcome outcome = client.request_with_retry(request, policy);
  ASSERT_EQ(outcome.response.status, StatusCode::kOk);
  EXPECT_EQ(outcome.response.source, CacheSource::kDisk);
  EXPECT_EQ(outcome.response.artifact, first_artifact);
  EXPECT_GE(outcome.retries, 1u);
  EXPECT_GE(outcome.reconnects, 1u);
  running->stop();
}

TEST(ServeClient, RetryBudgetExhaustionThrowsTheLastError) {
  // The remembered endpoint dies with its server: every reconnect attempt
  // is refused, so the retry budget drains and the last typed error escapes.
  ServeClient client = [] {
    RunningServer running({});
    return running.connect();
  }();
  client.close();
  ClientRetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 4;
  EXPECT_THROW(client.request_with_retry(rank_request('M', 4), policy), ConnectionLostError);
}

TEST(ServeServer, ChaosCorruptedResponseIsCaughtByDigestNotByCache) {
  ServeConfig config;
  config.faults.seed = 7;
  config.faults.corrupt_response_every = 1;  // every OK response, scheduled or inline
  RunningServer running(std::move(config));
  ServeClient client = running.connect();
  const Request request = rank_request('M', 5);

  // The wire copy is corrupted after the digest was computed: the frame
  // decodes, but local re-hashing exposes the flip — exactly what loadgen's
  // digest_mismatches counter is for.
  const Response corrupted = client.request(request);
  ASSERT_EQ(corrupted.status, StatusCode::kOk);
  EXPECT_NE(fnv1a(corrupted.artifact), corrupted.digest);

  // The cache itself stays pristine (corruption is injected on the response
  // path, not the stored artifact), so the hit is corrupted independently —
  // and the underlying artifact digest still matches across serves.
  const Response hit = client.request(request);
  ASSERT_EQ(hit.status, StatusCode::kOk);
  EXPECT_EQ(hit.source, CacheSource::kHit);
  EXPECT_EQ(hit.digest, corrupted.digest);

  const ServeStats stats = running.stop();
  EXPECT_EQ(stats.chaos_corrupted_responses, 2u);
  EXPECT_EQ(stats.cache.verify_failures, 0u);
}

TEST(ServeServer, ChaosStallDelaysScheduledResponses) {
  ServeConfig config;
  config.faults.stall_every = 1;
  config.faults.stall_ms = 30;
  RunningServer running(std::move(config));
  ServeClient client = running.connect();
  const auto t0 = std::chrono::steady_clock::now();
  const Response response = client.request(rank_request('M', 4));
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_EQ(response.status, StatusCode::kOk);
  EXPECT_GE(ms, 30.0);
  EXPECT_EQ(running.stop().chaos_stalls, 1u);
}

TEST(ServeServer, ChaosStallNeverSleepsTheIoThreadOnInlineHits) {
  ServeConfig config;
  config.faults.stall_every = 1;
  config.faults.stall_ms = 30;
  RunningServer running(std::move(config));
  ServeClient client = running.connect();
  const Request request = rank_request('M', 4);
  ASSERT_EQ(client.request(request).source, CacheSource::kCold);  // scheduled: stalls
  const Response hit = client.request(request);                   // inline: does not
  ASSERT_EQ(hit.status, StatusCode::kOk);
  EXPECT_EQ(hit.source, CacheSource::kHit);
  EXPECT_EQ(running.stop().chaos_stalls, 1u);
}

// ---- loadgen ---------------------------------------------------------------

TEST(Loadgen, RequestPoolIsSeedDeterministicAndDistinct) {
  LoadgenConfig config;
  config.seed = 11;
  const std::vector<Request> a = loadgen_request_pool(config);
  const std::vector<Request> b = loadgen_request_pool(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;

  std::vector<std::uint64_t> keys;
  for (const Request& request : a) keys.push_back(request_cache_key(request));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end()) << "duplicate keys";

  config.seed = 12;
  const std::vector<Request> c = loadgen_request_pool(config);
  EXPECT_NE(a, c);
}

TEST(Loadgen, EndToEndRunIsCleanAndReportsGateableJson) {
  RunningServer running({});
  LoadgenConfig config;
  config.tcp_port = running.server().tcp_port();
  config.requests = 200;
  config.concurrency = 4;
  config.seed = 3;
  config.max_n = 7;  // keep the cold builds quick
  config.stats_every = 50;

  const LoadgenReport report = run_loadgen(config);
  EXPECT_EQ(report.requests_sent, 200u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.digest_mismatches, 0u);
  EXPECT_EQ(report.byte_mismatches, 0u);
  EXPECT_GT(report.cache_hits, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_GT(report.p50_ms, 0.0);

  const std::string json = loadgen_report_json(config, report);
  for (const char* needle :
       {"\"serve/latency_p50\"", "\"serve/latency_p95\"", "\"serve/latency_p99\"",
        "\"serve/cold_p50\"", "\"serve/warm_p50\"", "\"cpu_time\"", "\"time_unit\": \"ms\"",
        "\"cache_hits\"", "\"disk_hits\"", "\"retries\"", "\"reconnects\"",
        "\"throughput_rps\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(Loadgen, ZipfSkewIsVisibleInKeyDeciles) {
  RunningServer running({});
  LoadgenConfig config;
  config.tcp_port = running.server().tcp_port();
  config.requests = 300;
  config.concurrency = 4;
  config.seed = 5;
  config.max_n = 7;
  config.pool_size = 20;
  config.stats_every = 0;  // every request is a data-path request
  config.zipf_s = 1.5;

  const LoadgenReport skewed = run_loadgen(config);
  ASSERT_EQ(skewed.key_deciles.size(), 10u);
  std::size_t total_keys = 0, total_requests = 0;
  for (const auto& d : skewed.key_deciles) {
    total_keys += d.keys;
    total_requests += d.requests;
    EXPECT_LE(d.warm, d.requests);
  }
  EXPECT_EQ(total_keys, config.pool_size);   // every pool key lands in a decile
  EXPECT_EQ(total_requests, config.requests);  // no probe leaks into the buckets
  // s = 1.5 over 20 keys puts ~63% of the mass on the two hottest ranks —
  // the head decile must dominate and the tail must be cold.
  EXPECT_GT(skewed.key_deciles[0].requests, config.requests / 3);
  EXPECT_GT(skewed.key_deciles[0].requests, 5 * skewed.key_deciles[9].requests);

  // Uniform control with the same seed: the head decile holds nowhere near
  // a third of the traffic, so the gradient above really is the skew knob.
  config.zipf_s = 0.0;
  const LoadgenReport uniform = run_loadgen(config);
  EXPECT_LT(uniform.key_deciles[0].requests, config.requests / 4);

  const std::string json = loadgen_report_json(config, uniform);
  EXPECT_NE(json.find("\"key_deciles\""), std::string::npos);
  EXPECT_NE(json.find("\"zipf_s\""), std::string::npos);
}

// ---- client retry internals ------------------------------------------------

TEST(ClientRetryBackoff, SeededScheduleReplaysExactly) {
  ClientRetryPolicy policy;
  policy.backoff_base_ms = 10;
  policy.backoff_cap_ms = 500;
  policy.backoff_seed = 7;
  const Request request = rank_request('M', 6);

  const auto schedule = [](const ClientRetryPolicy& p, const Request& r) {
    std::vector<std::uint64_t> out;
    for (unsigned retry = 1; retry <= 6; ++retry) out.push_back(client_retry_backoff_ns(p, r, retry));
    return out;
  };

  // Pure in (policy, request, retry): two computations agree to the nanosecond.
  const std::vector<std::uint64_t> a = schedule(policy, request);
  EXPECT_EQ(a, schedule(policy, request));

  // And it is the BatchRunner schedule verbatim, keyed by the cache key —
  // documented in client.h, depended on by anyone replaying a chaos run.
  BatchPolicy batch;
  batch.backoff_base_ns = policy.backoff_base_ms * 1'000'000ULL;
  batch.backoff_cap_ns = policy.backoff_cap_ms * 1'000'000ULL;
  batch.backoff_seed = policy.backoff_seed;
  for (unsigned retry = 1; retry <= 6; ++retry) {
    EXPECT_EQ(a[retry - 1],
              retry_backoff_ns(batch, static_cast<std::size_t>(request_cache_key(request)), retry));
  }

  // The jitter key de-synchronizes both across seeds and across requests.
  ClientRetryPolicy other_seed = policy;
  other_seed.backoff_seed = 8;
  EXPECT_NE(a, schedule(other_seed, request));
  EXPECT_NE(a, schedule(policy, rank_request('M', 7)));

  // Capped exponential shape: never above the cap, never zero once base > 0.
  for (const std::uint64_t ns : a) {
    EXPECT_GT(ns, 0u);
    EXPECT_LE(ns, policy.backoff_cap_ms * 1'000'000ULL);
  }
}

// A scripted fake daemon: a raw TCP listener that answers each decoded
// request frame with the next action in its script — a typed error frame, an
// OK frame, or a hard close. This pins down request_with_retry()'s exact
// budget accounting without racing a real scheduler.
class ScriptedServer {
 public:
  enum class Action { kOk, kQueueFull, kComputeFailed, kClose };

  explicit ScriptedServer(std::vector<Action> script) : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      ADD_FAILURE() << "scripted listen failed: " << std::strerror(errno);
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { accept_main(); });
  }

  ~ScriptedServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks a pending accept()
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }
  unsigned connections_accepted() const { return connections_.load(); }

 private:
  void accept_main() {
    while (next_ < script_.size()) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;  // listener shut down
      connections_.fetch_add(1);
      serve_connection(conn);
      ::close(conn);
    }
  }

  // Reads frames and plays actions until the script says close, the script
  // runs out, or the client hangs up.
  void serve_connection(int conn) {
    while (next_ < script_.size()) {
      char header_bytes[kFrameHeaderBytes];
      if (!read_exact(conn, header_bytes, sizeof(header_bytes))) return;
      FrameHeader header{};
      try {
        header = decode_frame_header({header_bytes, sizeof(header_bytes)});
      } catch (const ProtocolViolationError&) {
        return;
      }
      std::string payload(header.payload_len, '\0');
      if (header.payload_len > 0 && !read_exact(conn, payload.data(), payload.size())) return;
      const RequestType type = static_cast<RequestType>(header.type);

      std::string frame;
      switch (script_[next_++]) {
        case Action::kOk:
          frame = encode_ok_frame(type, CacheSource::kCold, fnv1a("scripted"), "scripted");
          break;
        case Action::kQueueFull:
          frame = encode_error_frame(type, StatusCode::kQueueFull, "scripted backpressure");
          break;
        case Action::kComputeFailed:
          frame = encode_error_frame(type, StatusCode::kComputeFailed, "scripted failure");
          break;
        case Action::kClose:
          return;  // caller closes: the client sees EOF mid-exchange
      }
      if (!write_all(conn, frame)) return;
    }
  }

  static bool read_exact(int fd, char* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd, data + got, size - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  }

  static bool write_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::vector<Action> script_;
  std::atomic<std::size_t> next_{0};
  std::atomic<unsigned> connections_{0};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientRetry, MixedRetryableSequenceConsumesTheBudgetExactly) {
  // QueueFull (retryable status), EOF mid-exchange (retryable transport
  // error), QueueFull again, then success: three retries, one reconnect —
  // exactly the accounting client.h documents.
  ScriptedServer server({ScriptedServer::Action::kQueueFull, ScriptedServer::Action::kClose,
                         ScriptedServer::Action::kQueueFull, ScriptedServer::Action::kOk});
  ServeClient client = ServeClient::connect_tcp(server.port());
  ClientRetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;

  const RetryOutcome outcome = client.request_with_retry(rank_request('M', 4), policy);
  EXPECT_EQ(outcome.response.status, StatusCode::kOk);
  EXPECT_EQ(outcome.response.artifact, "scripted");
  EXPECT_EQ(outcome.retries, 3u);
  EXPECT_EQ(outcome.reconnects, 1u);
  EXPECT_EQ(server.connections_accepted(), 2u);
}

TEST(ClientRetry, NonRetryableStatusReturnsWithoutSpendingBudget) {
  ScriptedServer server({ScriptedServer::Action::kComputeFailed});
  ServeClient client = ServeClient::connect_tcp(server.port());
  ClientRetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_base_ms = 1;

  // ComputeFailed is deterministic — retrying would recompute the same
  // failure — so the budget must stay untouched.
  const RetryOutcome outcome = client.request_with_retry(rank_request('M', 4), policy);
  EXPECT_EQ(outcome.response.status, StatusCode::kComputeFailed);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.reconnects, 0u);
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(ClientRetry, RepeatedConnectionLossMakesExactlyBudgetPlusOneAttempts) {
  ScriptedServer server({ScriptedServer::Action::kClose, ScriptedServer::Action::kClose,
                         ScriptedServer::Action::kClose});
  ServeClient client = ServeClient::connect_tcp(server.port());
  ClientRetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ms = 1;
  policy.backoff_cap_ms = 2;

  // max_retries = 2 means three attempts total; the third loss escapes as
  // the typed transport error.
  EXPECT_THROW(client.request_with_retry(rank_request('M', 4), policy), ConnectionLostError);
  EXPECT_EQ(server.connections_accepted(), 3u);
}

}  // namespace
}  // namespace bcclb
