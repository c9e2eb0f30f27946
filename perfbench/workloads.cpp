#include "workloads.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bcc/batch_runner.h"
#include "bcc/checkpoint.h"
#include "bench_core.h"
#include "common/random.h"
#include "graph/generators.h"
#include "linalg/tiled_rank.h"
#include "search/engine.h"
#include "search/fitness.h"
#include "search/strategy.h"
#include "serve/artifact_cache.h"
#include "serve/backend_pool.h"
#include "serve/client.h"
#include "serve/handlers.h"
#include "serve/wire.h"

namespace perfbench {

using bcclb::CacheSource;
using bcclb::Request;
using bcclb::RequestType;
using bcclb::Response;
using bcclb::ServeClient;
using bcclb::StatusCode;

void Outcome::fail(const std::string& reason) {
  ++failed;
  if (failures.size() < 5) failures.push_back(reason);
}

namespace {

constexpr std::uint64_t kSecondNs = 1'000'000'000ULL;
// A measured window stretches past --seconds only until the tail percentile
// has its 10 samples beyond it, and never past this cap.
constexpr std::uint64_t kWindowCapNs = 120 * kSecondNs;
constexpr std::uint64_t kReadyTimeoutNs = 30 * kSecondNs;

// Workload parameters. Every op of one workload costs the same.
constexpr std::uint32_t kColdSimN = 32768;                // kSimImplicit one-cycle size
constexpr const char* kColdCacheBudget = "16K";           // far below the run's artifacts
constexpr std::uint64_t kColdCacheBudgetBytes = 16 * 1024;
constexpr std::size_t kSearchN = 7, kSearchRounds = 1, kSearchBuckets = 4, kSearchBudget = 64;
constexpr std::uint64_t kAnchorSeed = 2019;  // the first cell of every run
// Strategy digest of the anchor cell (n 7, rounds 1, buckets 4, budget 64,
// random driver, seed 2019): pinned so a run proves the search reproduces.
constexpr const char* kAnchorStrategyDigest = "c1e66899578170c5";
constexpr std::size_t kRankN = 8, kRankTileRows = 32;
// Certificate digest of `bcclb rank --n 8 --field modp --tile-rows 32`.
constexpr const char* kRankCertificate = "e6b8d08274a74e8c";

// Traced runs use fixed op counts so that the kStats deltas and search
// counts repeat exactly from run to run.
constexpr std::size_t kTracedWarmOpsPerConn = 30000;
constexpr std::size_t kTracedColdOpsPerConn = 60;
constexpr std::size_t kTracedCells = 12;
constexpr std::size_t kTracedEvalsPerCell = 8;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double ms_between(std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; }

// ---------------------------------------------------------------------------
// Processes under test.

Child start_daemon(const std::vector<std::string>& argv, const char* banner) {
  Child child(argv, true, false);
  const auto line = child.read_stdout_line(now_ns() + kReadyTimeoutNs);
  if (!line || line->find(banner) == std::string::npos) {
    throw std::runtime_error(argv[1] + " did not report ready");
  }
  return child;
}

void stop_daemon(Child& child, Outcome& out) {
  child.signal(SIGTERM);
  child.drain_stdout(now_ns() + kReadyTimeoutNs);
  if (!child.at_eof()) child.signal(SIGKILL);  // never hang the benchmark on a stuck drain
  if (!child.wait().ok()) out.fail("daemon did not drain cleanly");
}

std::string stats_of(const std::string& socket) {
  ServeClient client = ServeClient::connect_unix(socket);
  Request request;
  request.type = RequestType::kStats;
  const Response response = client.request(request);
  return bcclb::require_ok(response).artifact;
}

std::uint64_t stat(const std::string& stats, const char* name) {
  return field_u64(stats, std::string("\n") + name + " = ").value_or(0);
}

// Launch cost of the CLI: fork, exec, dynamic load, exit.
double version_probe_s(const Options& o) {
  const std::uint64_t t0 = now_ns();
  Child child({o.bcclb, "version"}, true, false);
  child.drain_stdout();
  if (!child.wait().ok()) throw std::runtime_error("bcclb version failed");
  return ms_between(t0, now_ns()) / 1e3;
}

// ---------------------------------------------------------------------------
// Closed-loop serving clients: one thread and one connection each.

struct LoopResult {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::uint64_t end_ns = 0;
};

struct LoopSpec {
  std::uint64_t stop_ns = UINT64_MAX;  // time target
  std::size_t min_ops = 0;             // keep going past stop_ns until reached
  std::size_t max_ops = SIZE_MAX;      // fixed-count runs
  std::uint64_t cap_ns = UINT64_MAX;   // hard stop
};

using RequestFor = std::function<Request(std::size_t)>;
// Returns "" when the response is right; may mutate it (the corruption hook).
using CheckFn = std::function<std::string(std::size_t, Response&)>;

void serve_loop(const std::string& socket, const LoopSpec& spec, const RequestFor& request_for,
                const CheckFn& check, LoopResult& out) {
  try {
    ServeClient client = ServeClient::connect_unix(socket);
    for (std::size_t i = 0; i < spec.max_ops; ++i) {
      const std::uint64_t now = now_ns();
      if (now >= spec.cap_ns || (now >= spec.stop_ns && i >= spec.min_ops)) break;
      const Request request = request_for(i);
      const std::uint64_t t0 = now_ns();
      Response response = client.request(request);
      const std::uint64_t t1 = now_ns();
      ++out.attempted;
      out.latency_ms.push_back(ms_between(t0, t1));
      std::string why = response.status == StatusCode::kOk
                            ? check(i, response)
                            : std::string("status ") + bcclb::status_code_name(response.status);
      if (!why.empty()) out.failures.push_back(why);
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.failures.push_back(std::string("connection: ") + e.what());
  }
  out.end_ns = now_ns();
}

// Runs one loop per socket concurrently (loop c uses sockets[c] and
// specs[c]) and merges attempts and failures into `out`.
std::vector<LoopResult> run_loops(const std::vector<std::string>& sockets,
                                  const std::vector<LoopSpec>& specs,
                                  const std::function<Request(unsigned, std::size_t)>& request_for,
                                  const std::function<std::string(unsigned, std::size_t, Response&)>& check,
                                  Outcome& out) {
  std::vector<LoopResult> results(sockets.size());
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < sockets.size(); ++c) {
    threads.emplace_back([&, c] {
      serve_loop(
          sockets[c], specs[c], [&, c](std::size_t i) { return request_for(c, i); },
          [&, c](std::size_t i, Response& r) { return check(c, i, r); }, results[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const LoopResult& r : results) {
    out.attempted += r.attempted;
    for (const std::string& why : r.failures) out.fail(why);
  }
  return results;
}

std::vector<double> merged_latencies(const std::vector<LoopResult>& results) {
  std::vector<double> all;
  for (const LoopResult& r : results) all.insert(all.end(), r.latency_ms.begin(), r.latency_ms.end());
  return all;
}

LoopSpec fixed_count(std::size_t ops) {
  LoopSpec spec;
  spec.max_ops = ops;
  spec.cap_ns = now_ns() + kWindowCapNs;
  return spec;
}

// The measured window of a serving workload: kConnections closed loops for
// --seconds (longer only until the tail has its samples beyond it), with CPU
// and peak RSS of the daemons under test read around it.
void measure_window(const Options& o, const std::vector<pid_t>& pids,
                    const std::vector<std::string>& sockets,
                    const std::function<Request(unsigned, std::size_t)>& request_for,
                    const std::function<std::string(unsigned, std::size_t, Response&)>& check,
                    Outcome& out) {
  double cpu0 = 0;
  for (const pid_t pid : pids) cpu0 += proc_cpu_ms(pid);
  LoopSpec spec;
  const std::uint64_t start = now_ns();
  spec.stop_ns = start + o.seconds * kSecondNs;
  spec.cap_ns = start + kWindowCapNs;
  spec.min_ops = (min_samples_for_tail(o.tail_q) + kConnections - 1) / kConnections;
  const auto results =
      run_loops(sockets, std::vector<LoopSpec>(kConnections, spec), request_for, check, out);
  std::uint64_t end = start;
  for (const LoopResult& r : results) end = std::max(end, r.end_ns);
  out.window_s = static_cast<double>(end - start) / 1e9;
  out.cpu_ms = -cpu0;
  for (const pid_t pid : pids) {
    out.cpu_ms += proc_cpu_ms(pid);
    out.peak_rss_mib = std::max(out.peak_rss_mib, proc_peak_rss_mib(pid));
  }
  out.latencies_ms = merged_latencies(results);
}

void maybe_corrupt(const Options& o, unsigned c, std::size_t i, std::string& bytes) {
  if (o.corrupt && c == 0 && i == 0 && !bytes.empty()) bytes[bytes.size() / 2] ^= 0x01;
}

double span_cost_ns() {
  Tracer calibrate;
  constexpr std::size_t kSpans = 100000;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kSpans; ++i) SpanGuard span(calibrate, "calibrate", i);
  return static_cast<double>(now_ns() - t0) / kSpans;
}

// The traced run's own cost: spans recorded times their calibrated cost, as
// a share of the traced replay's wall time.
double trace_overhead_pct(const Tracer& tracer, std::uint64_t replay_ns) {
  return 100.0 * static_cast<double>(tracer.size()) * span_cost_ns() /
         static_cast<double>(std::max<std::uint64_t>(replay_ns, 1));
}

double mean_self_ms(const Tracer& t, const char* name) { return t.mean_self_ns(name) / 1e6; }

// ---------------------------------------------------------------------------
// warm_routed: cache hits through `bcclb route` over two `bcclb serve` shards.

// A seeded pool of cacheable requests covering every request type at
// interactive sizes. The shape (types, sizes, counts) is fixed; the seed picks
// the free parameters, so every seed gives a pool of the same cost profile.
std::vector<Request> warm_pool(std::uint64_t seed) {
  bcclb::Rng rng(seed);
  std::vector<Request> pool;
  std::unordered_set<std::uint64_t> keys;
  const auto add = [&](const Request& r) {
    if (keys.insert(bcclb::request_cache_key(r)).second) pool.push_back(r);
  };
  const auto draw = [&](std::size_t count, const std::function<Request()>& make) {
    const std::size_t target = pool.size() + count;
    while (pool.size() < target) add(make());
  };
  const auto request = [](RequestType type, std::uint8_t family, std::uint32_t n,
                          std::uint64_t packed) {
    Request r;
    r.type = type;
    r.family = family;
    r.n = n;
    r.packed = packed;
    return r;
  };
  draw(4, [&] {
    const auto structure =
        rng.next_bool() ? bcclb::random_one_cycle(12, rng) : bcclb::random_two_cycle(12, rng);
    return request(RequestType::kClassify, 'M', 12, structure.packed_successors());
  });
  add(request(RequestType::kIndistGraph, 'M', 6, 0));
  add(request(RequestType::kIndistGraph, 'M', 7, 0));
  add(request(RequestType::kRank, 'M', 5, 0));
  add(request(RequestType::kRank, 'M', 6, 0));
  add(request(RequestType::kRank, 'E', 6, 0));
  add(request(RequestType::kRank, 'E', 8, 0));
  draw(4, [&] {
    static constexpr double kKeep[] = {0.25, 0.5, 0.75, 1.0};
    Request r = request(RequestType::kInfo, 'M', 5 + static_cast<std::uint32_t>(rng.next_below(2)), 0);
    const double keep = kKeep[rng.next_below(4)];
    std::memcpy(&r.keep_bits, &keep, sizeof keep);
    return r;
  });
  draw(4, [&] { return request(RequestType::kSimImplicit, 0, 1024, rng.next_u64()); });
  draw(4, [&] {  // M_7 has 877 rows: 14 tiles of 64
    return request(RequestType::kRankTile, 'p', 7, (64ULL << 32) | rng.next_below(14));
  });
  draw(4, [&] {  // random driver, rounds 1, buckets 4, budget 32
    return request(RequestType::kBestStrategy, 'r', 6,
                   (1ULL << 56) | (4ULL << 48) | (rng.next_below(1 << 16) << 32) | 32);
  });
  return pool;
}

// Pool index sequence of connection c; loops wrap around it.
std::vector<std::uint32_t> pick_sequence(std::uint64_t seed, unsigned c, std::size_t pool_size) {
  bcclb::Rng rng(splitmix(seed) + c + 1);
  std::vector<std::uint32_t> seq(1 << 16);
  for (auto& v : seq) v = static_cast<std::uint32_t>(rng.next_below(pool_size));
  return seq;
}

struct Cluster {
  std::string shard_socket[2];
  std::string router_socket;
  Child shard[2];
  Child router;
};

void start_cluster(const Options& o, Cluster& c) {
  std::vector<std::string> route = {o.bcclb, "route", "--socket", c.router_socket, "--seed",
                                    std::to_string(o.seed)};
  for (int s = 0; s < 2; ++s) {
    c.shard[s] = start_daemon({o.bcclb, "serve", "--socket", c.shard_socket[s], "--threads",
                               std::to_string(kThreads)},
                              "bccd listening");
    route.push_back("--backend");
    route.push_back("unix:" + c.shard_socket[s]);
  }
  c.router = start_daemon(route, "bccr listening");
}

void stop_cluster(Cluster& c, Outcome& out) {
  stop_daemon(c.router, out);
  for (Child& s : c.shard) stop_daemon(s, out);
}

// Sends every pool request once through the router (cold builds), checking
// each answer and recording the first-seen digest per key.
void prewarm(const Cluster& c, const std::vector<Request>& pool,
             std::unordered_map<std::uint64_t, std::uint64_t>& digests,
             std::unordered_map<std::uint64_t, std::string>& artifacts, Outcome& out) {
  ServeClient client = ServeClient::connect_unix(c.router_socket);
  for (const Request& request : pool) {
    const std::uint64_t key = bcclb::request_cache_key(request);
    const Response response = client.request(request);
    ++out.attempted;
    if (response.status != StatusCode::kOk) {
      out.fail(std::string("prewarm status ") + bcclb::status_code_name(response.status));
      continue;
    }
    const auto seen = digests.find(key);
    const std::string why = check_served_artifact(
        response.artifact, response.digest,
        seen == digests.end() ? std::nullopt : std::optional<std::uint64_t>(seen->second));
    if (!why.empty()) out.fail("prewarm: " + why);
    digests.emplace(key, response.digest);
    artifacts.emplace(key, response.artifact);
  }
  std::uint64_t entries = 0;
  for (const std::string& s : c.shard_socket) entries += stat(stats_of(s), "cache entries");
  if (entries != pool.size()) out.fail("prewarm left the pool partly uncached");
}

Outcome run_warm_routed(const Options& o) {
  Outcome out;
  const std::vector<Request> pool = warm_pool(o.seed);
  std::vector<std::uint32_t> seq[kConnections];
  for (unsigned c = 0; c < kConnections; ++c) seq[c] = pick_sequence(o.seed, c, pool.size());

  Cluster cluster;
  cluster.shard_socket[0] = o.run_dir + "/s0.sock";
  cluster.shard_socket[1] = o.run_dir + "/s1.sock";
  cluster.router_socket = o.run_dir + "/r.sock";
  std::unordered_map<std::uint64_t, std::uint64_t> digests;
  std::unordered_map<std::uint64_t, std::string> artifacts;
  const int setups = o.trace ? 1 : 5;
  for (int s = 0; s < setups; ++s) {
    const std::uint64_t t0 = now_ns();
    start_cluster(o, cluster);
    prewarm(cluster, pool, digests, artifacts, out);
    out.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    if (s + 1 < setups) stop_cluster(cluster, out);
  }

  const auto request_for = [&](unsigned c, std::size_t i) {
    return pool[seq[c][i % seq[c].size()]];
  };
  const auto check_hit = [&](unsigned c, std::size_t i, Response& r) -> std::string {
    maybe_corrupt(o, c, i, r.artifact);
    if (r.source != CacheSource::kHit) return "expected a memory-tier hit";
    return check_served_artifact(r.artifact, r.digest,
                                 digests.at(bcclb::request_cache_key(request_for(c, i))));
  };
  const std::vector<std::string> via_router(kConnections, cluster.router_socket);

  const auto shard_stats = [&](const char* name) {
    return stat(stats_of(cluster.shard_socket[0]), name) +
           stat(stats_of(cluster.shard_socket[1]), name);
  };

  std::string digest_record = "{";
  for (const Request& r : pool) {
    const std::uint64_t key = bcclb::request_cache_key(r);
    if (digest_record.size() > 1) digest_record += ',';
    digest_record += json_quote(hex(key)) + ':' + json_quote(hex(digests[key]));
  }
  out.record["artifact_digests"] = digest_record + "}";

  if (!o.trace) {
    const std::uint64_t hits0 = shard_stats("cache hits");
    measure_window(o, {cluster.shard[0].pid(), cluster.shard[1].pid(), cluster.router.pid()},
                   via_router, request_for, check_hit, out);
    out.record["window_cache_hits"] = std::to_string(shard_stats("cache hits") - hits0);
    stop_cluster(cluster, out);
    return out;
  }

  // Traced: the same closed loop for a fixed op count through the router,
  // then the same ops straight to each key's owning shard, then an
  // in-process replay of the hit path with a span around each layer call.
  const std::string router0 = stats_of(cluster.router_socket);
  const std::uint64_t hits0 = shard_stats("cache hits");
  const std::uint64_t admitted0 = shard_stats("requests admitted");
  const auto routed =
      run_loops(via_router, std::vector<LoopSpec>(kConnections, fixed_count(kTracedWarmOpsPerConn)),
                request_for, check_hit, out);
  const std::string router1 = stats_of(cluster.router_socket);
  const double hits = static_cast<double>(shard_stats("cache hits") - hits0);
  const double admitted = static_cast<double>(shard_stats("requests admitted") - admitted0);

  bcclb::BackendPolicy policy;
  policy.probe_interval_ms = 0;
  bcclb::BackendPool ranking({{cluster.shard_socket[0], 0}, {cluster.shard_socket[1], 0}}, policy);
  std::vector<Request> replay;  // routed ops in a fixed interleaved order
  for (std::size_t i = 0; i < kTracedWarmOpsPerConn; ++i) {
    for (unsigned c = 0; c < kConnections; ++c) {
      if (i < routed[c].attempted) replay.push_back(request_for(c, i));
    }
  }
  std::vector<Request> owned[2];
  for (const Request& r : replay) owned[ranking.rank(bcclb::request_cache_key(r))[0]].push_back(r);
  // One connection per shard, each sending only its own shard's share.
  const auto direct = run_loops(
      {cluster.shard_socket[0], cluster.shard_socket[1]},
      {fixed_count(owned[0].size()), fixed_count(owned[1].size())},
      [&](unsigned s, std::size_t i) { return owned[s][i]; },
      [&](unsigned s, std::size_t i, Response& r) -> std::string {
        if (r.source != CacheSource::kHit) return "expected a memory-tier hit";
        return check_served_artifact(r.artifact, r.digest,
                                     digests.at(bcclb::request_cache_key(owned[s][i])));
      },
      out);
  stop_cluster(cluster, out);

  bcclb::ArtifactCache cache(bcclb::resolve_cache_budget(0));
  for (const auto& [key, artifact] : artifacts) cache.insert(key, artifact);
  Tracer tracer;
  double bytes = 0;
  const std::uint64_t replay_t0 = now_ns();
  for (std::size_t op = 0; op < replay.size(); ++op) {
    const Request& request = replay[op];
    SpanGuard op_span(tracer, "op", op);
    std::string frame;
    {
      SpanGuard s(tracer, "client.encode_request", op);
      frame = bcclb::encode_request_frame(request);
    }
    std::uint64_t key;
    Request decoded;
    {
      SpanGuard s(tracer, "wire.decode_request", op);
      const auto header = bcclb::decode_frame_header(frame);
      decoded = bcclb::decode_request(header.type,
                                      std::string_view(frame).substr(bcclb::kFrameHeaderBytes));
      key = bcclb::request_cache_key(decoded);
    }
    {
      SpanGuard s(tracer, "backend_pool.rank", op);
      (void)ranking.rank(key);
    }
    std::optional<std::string> hit;
    {
      SpanGuard s(tracer, "artifact_cache.lookup", op);
      hit = cache.lookup(key);
    }
    ++out.attempted;
    if (!hit || !(decoded == request)) {
      out.fail("in-process replay: lookup or decode mismatch");
      continue;
    }
    bytes += static_cast<double>(hit->size());
    std::string reply;
    {
      SpanGuard s(tracer, "wire.encode_ok", op);
      reply = bcclb::encode_ok_frame(request.type, CacheSource::kHit, bcclb::fnv1a(*hit), *hit);
    }
    Response response;
    {
      SpanGuard s(tracer, "client.decode_response", op);
      const auto header = bcclb::decode_frame_header(reply);
      response = bcclb::decode_response(
          header, std::string_view(reply).substr(bcclb::kFrameHeaderBytes));
    }
    const std::string why = check_served_artifact(response.artifact, response.digest, digests.at(key));
    if (!why.empty()) out.fail("in-process replay: " + why);
  }
  const std::uint64_t replay_ns = now_ns() - replay_t0;

  const double routed_p50 = median(merged_latencies(routed));
  const double direct_p50 = median(merged_latencies(direct));
  const double decode = tracer.mean_self_ns("wire.decode_request");
  const double lookup = tracer.mean_self_ns("artifact_cache.lookup");
  const double encode = tracer.mean_self_ns("wire.encode_ok");
  out.layer["wire.decode_request_ns"] = decode;
  out.layer["wire.encode_ok_ns"] = encode;
  out.layer["client.roundtrip_codec_ns"] =
      tracer.mean_self_ns("client.encode_request") + tracer.mean_self_ns("client.decode_response");
  out.layer["artifact_cache.lookup_ns"] = lookup;
  out.layer["artifact_cache.bytes_per_hit"] = replay.empty() ? 0 : bytes / replay.size();
  out.layer["artifact_cache.hit_ratio"] = admitted > 0 ? hits / admitted : 0;
  out.layer["backend_pool.rank_ns"] = tracer.mean_self_ns("backend_pool.rank");
  out.layer["router.hop_us"] = (routed_p50 - direct_p50) * 1e3;
  out.layer["router.failovers"] =
      static_cast<double>(stat(router1, "failovers") - stat(router0, "failovers"));
  out.layer["router.digest_rejected"] =
      static_cast<double>(stat(router1, "digest rejected") - stat(router0, "digest rejected"));
  out.layer["server.residual_us"] = direct_p50 * 1e3 - (decode + lookup + encode) / 1e3;
  out.layer["trace.overhead_pct"] = trace_overhead_pct(tracer, replay_ns);
  out.record["routed_p50_ms"] = std::to_string(routed_p50);
  out.record["direct_p50_ms"] = std::to_string(direct_p50);
  tracer.write_jsonl(o.spans_path);
  return out;
}

// ---------------------------------------------------------------------------
// cold_flood: never-seen kSimImplicit requests straight to one `bcclb serve`
// whose cache budget is far below what the run produces.

Request cold_request(std::uint64_t seed, std::size_t global_index) {
  Request r;
  r.type = RequestType::kSimImplicit;
  r.family = 0;  // one-cycle
  r.n = kColdSimN;
  r.packed = splitmix(seed * 0x9e3779b97f4a7c15ULL + global_index);  // distinct per op
  return r;
}

// One build worker: two misses admitted together then run back to back, as
// do two that arrive apart, so every op waits for exactly one other build
// whatever the arrival pattern. (At two workers the pattern decides whether
// builds overlap, and the latency flips between two modes from run to run.)
constexpr unsigned kColdWorkers = 1;

Child start_cold_shard(const Options& o, const std::string& socket) {
  return start_daemon({o.bcclb, "serve", "--socket", socket, "--threads",
                       std::to_string(kColdWorkers), "--cache-budget", kColdCacheBudget},
                      "bccd listening");
}

Outcome run_cold_flood(const Options& o) {
  Outcome out;
  const std::string socket = o.run_dir + "/c.sock";
  Child shard;
  const int setups = o.trace ? 1 : 9;
  for (int s = 0; s < setups; ++s) {
    const std::uint64_t t0 = now_ns();
    shard = start_cold_shard(o, socket);
    stats_of(socket);  // ready = answers a probe
    out.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    if (s + 1 < setups) stop_daemon(shard, out);
  }
  const std::vector<std::string> sockets(kConnections, socket);
  const auto index_of = [](unsigned c, std::size_t i) { return i * kConnections + c; };
  const auto request_for = [&](unsigned c, std::size_t i) {
    return cold_request(o.seed, index_of(c, i));
  };
  const auto check_cold = [&](unsigned c, std::size_t i, Response& r) -> std::string {
    maybe_corrupt(o, c, i, r.artifact);
    if (r.source != CacheSource::kCold) return "expected a cold build";
    std::string why = check_served_artifact(r.artifact, r.digest, std::nullopt);
    return why.empty() ? check_sim_artifact(r.artifact) : why;
  };

  if (!o.trace) {
    measure_window(o, {shard.pid()}, sockets, request_for, check_cold, out);
    out.record["evictions"] = std::to_string(stat(stats_of(socket), "cache evictions"));
    stop_daemon(shard, out);
    return out;
  }

  // Traced: the same closed loop for a fixed op count, then the warm RTT of
  // the last request on the now idle shard (re-sending inside the loop would
  // queue the hit behind the other connection's build), then every request
  // rebuilt in-process through the handler.
  const std::string stats0 = stats_of(socket);
  std::vector<std::vector<std::string>> served(kConnections);
  const auto results = run_loops(
      sockets, std::vector<LoopSpec>(kConnections, fixed_count(kTracedColdOpsPerConn)), request_for,
      [&](unsigned c, std::size_t i, Response& r) {
        served[c].push_back(r.artifact);
        return check_cold(c, i, r);
      },
      out);
  const std::string stats1 = stats_of(socket);
  std::vector<double> warm_ms;
  {
    ServeClient client = ServeClient::connect_unix(socket);
    const Request last = request_for(0, kTracedColdOpsPerConn - 1);
    for (int k = 0; k < 51; ++k) {
      const std::uint64_t t0 = now_ns();
      const Response warm = client.request(last);
      warm_ms.push_back(ms_between(t0, now_ns()));
      ++out.attempted;
      if (warm.status != StatusCode::kOk || warm.source != CacheSource::kHit ||
          fnv1a64(warm.artifact) != fnv1a64(served[0].back())) {
        out.fail("re-sent request was not a byte-identical hit");
      }
    }
  }
  const double warm_p50 = median(warm_ms);
  stop_daemon(shard, out);

  Tracer tracer;
  double rounds = 0, handler_ns = 0;
  std::vector<double> queue_wait;
  const std::uint64_t replay_t0 = now_ns();
  for (unsigned c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < served[c].size(); ++i) {
      const Request r = request_for(c, i);
      const std::uint64_t t0 = now_ns();
      std::string artifact;
      {
        SpanGuard s(tracer, "handlers.sim_implicit", index_of(c, i));
        artifact = bcclb::sim_implicit_artifact(r.family, r.n, r.packed, kColdWorkers);
      }
      const double ms = ms_between(t0, now_ns());
      ++out.attempted;
      if (artifact != served[c][i]) out.fail("in-process handler bytes differ from the served artifact");
      rounds += static_cast<double>(field_u64(artifact, "rounds = ").value_or(0));
      handler_ns += ms * 1e6;
      queue_wait.push_back(results[c].latency_ms[i] - ms - warm_p50);
    }
  }
  bcclb::ArtifactCache cache(kColdCacheBudgetBytes);
  for (unsigned c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < served[c].size(); ++i) {
      SpanGuard s(tracer, "artifact_cache.insert", index_of(c, i));
      cache.insert(bcclb::request_cache_key(request_for(c, i)), served[c][i]);
    }
  }
  const std::uint64_t replay_ns = now_ns() - replay_t0;

  const auto delta = [&](const char* name) {
    return static_cast<double>(stat(stats1, name) - stat(stats0, name));
  };
  out.layer["handlers.sim_implicit_ms"] = mean_self_ms(tracer, "handlers.sim_implicit");
  out.layer["soa_engine.rounds_per_s"] = handler_ns > 0 ? rounds / (handler_ns / 1e9) : 0;
  out.layer["server.queue_wait_ms"] = queue_wait.empty() ? 0 : median(queue_wait);
  out.layer["artifact_cache.insert_ns"] = tracer.mean_self_ns("artifact_cache.insert");
  out.layer["artifact_cache.evictions"] = delta("cache evictions");
  out.layer["batch_runner.coalesced"] = delta("coalesced");
  out.layer["server.queue_full"] = delta("rejected queue-full");
  out.layer["trace.overhead_pct"] = trace_overhead_pct(tracer, replay_ns);
  out.record["cold_p50_ms"] = std::to_string(median(merged_latencies(results)));
  out.record["idle_warm_p50_ms"] = std::to_string(warm_p50);
  tracer.write_jsonl(o.spans_path);
  return out;
}

// ---------------------------------------------------------------------------
// CLI workloads: one `bcclb` child at a time, timed by wait4.

void cli_setup(const Options& o, Outcome& out) {
  for (int s = 0; s < 9; ++s) {
    const std::uint64_t t0 = now_ns();
    make_dirs(o.run_dir);
    version_probe_s(o);
    out.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
}

bool window_open(const Options& o, std::uint64_t start, std::size_t ops, std::size_t min_ops) {
  const std::uint64_t now = now_ns();
  if (now - start >= kWindowCapNs) return false;
  return now - start < o.seconds * kSecondNs || ops < min_ops;
}

// search_cells: distinct single-cell `bcclb search` invocations.

bcclb::SearchConfig cell_config(std::uint64_t seed, std::size_t index) {
  bcclb::SearchConfig cfg;
  cfg.n = kSearchN;
  cfg.rounds = kSearchRounds;
  cfg.buckets = kSearchBuckets;
  cfg.budget = kSearchBudget;
  cfg.driver = bcclb::SearchDriver::kRandom;
  cfg.seed = index == 0 ? kAnchorSeed : splitmix(seed * 0x9e3779b97f4a7c15ULL + index) >> 16;
  if (index != 0 && cfg.seed == kAnchorSeed) ++cfg.seed;
  cfg.threads = kThreads;
  return cfg;
}

struct CellRun {
  double wall_ms = 0;
  std::string artifact;
  std::string strategy_digest;
};

CellRun run_cell(const Options& o, const bcclb::SearchConfig& cfg, std::size_t index,
                 Outcome& out) {
  const std::string dir = o.run_dir + "/cell" + std::to_string(index);
  const std::uint64_t t0 = now_ns();
  Child child({o.bcclb, "search", "--dir", dir, "--n", std::to_string(cfg.n), "--rounds",
               std::to_string(cfg.rounds), "--buckets", std::to_string(cfg.buckets), "--budget",
               std::to_string(cfg.budget), "--driver", "random", "--seed",
               std::to_string(cfg.seed)},
              true, false);
  child.drain_stdout();
  const ExitInfo exit = child.wait();
  CellRun run;
  run.wall_ms = ms_between(t0, now_ns());
  out.cpu_ms += exit.cpu_ms;
  out.peak_rss_mib = std::max(out.peak_rss_mib, exit.max_rss_mib);
  ++out.attempted;
  if (!exit.ok()) {
    out.fail("search cell exited non-zero");
    return run;
  }
  char job[64];
  std::snprintf(job, sizeof job, "n%zu-t%u-random-k%u-b%llu", cfg.n, cfg.rounds, cfg.buckets,
                static_cast<unsigned long long>(cfg.budget));
  std::string golden;
  try {
    run.artifact = read_file(dir + "/out/" + job + ".txt");
    golden = read_file(dir + "/golden.json");
  } catch (const std::exception& e) {
    out.fail(e.what());
    return run;
  }
  maybe_corrupt(o, 0, index, run.artifact);
  // The campaign's golden store holds the FNV-1a of the bytes it wrote.
  char entry[96];
  std::snprintf(entry, sizeof entry, "\"%s\": \"%s\"", job, hex(fnv1a64(run.artifact)).c_str());
  std::string why = golden.find(entry) == std::string::npos
                        ? "search artifact bytes do not match the campaign's golden digest"
                        : check_search_artifact(run.artifact, &run.strategy_digest);
  if (why.empty() && index == 0 && run.strategy_digest != kAnchorStrategyDigest) {
    why = "anchor cell strategy digest " + run.strategy_digest + " != pinned " +
          kAnchorStrategyDigest;
  }
  if (!why.empty()) out.fail(why);
  return run;
}

Outcome run_search_cells(const Options& o) {
  Outcome out;
  cli_setup(o, out);
  std::vector<CellRun> cells;
  const std::size_t min_ops = min_samples_for_tail(o.tail_q);
  const std::uint64_t start = now_ns();
  while (o.trace ? cells.size() < kTracedCells : window_open(o, start, cells.size(), min_ops)) {
    cells.push_back(run_cell(o, cell_config(o.seed, cells.size()), cells.size(), out));
    out.latencies_ms.push_back(cells.back().wall_ms);
  }
  out.window_s = ms_between(start, now_ns()) / 1e3;
  std::string record = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) record += ',';
    record += json_quote(std::to_string(cell_config(o.seed, i).seed) + ':' +
                         cells[i].strategy_digest);
  }
  out.record["cell_strategy_digests"] = record + "]";
  if (!o.trace) return out;

  // Traced: each cell again in-process — run_search for the CLI overhead and
  // the byte-identity check, then the fitness layers one call at a time.
  Tracer tracer;
  double evals = 0, improvements = 0, overhead_ms = 0, eval_calls = 0, instances = 0;
  bcclb::BatchRunner runner(kThreads);
  const std::uint64_t replay_t0 = now_ns();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bcclb::SearchConfig cfg = cell_config(o.seed, i);
    const std::uint64_t t0 = now_ns();
    bcclb::SearchOutcome outcome;
    {
      SpanGuard s(tracer, "search.run_search", i);
      outcome = bcclb::run_search(cfg);
    }
    overhead_ms += cells[i].wall_ms - ms_between(t0, now_ns());
    ++out.attempted;
    if (bcclb::render_search_artifact(cfg, outcome) != cells[i].artifact) {
      out.fail("in-process search artifact differs from the CLI cell");
    }
    evals += static_cast<double>(outcome.evaluated);
    improvements += static_cast<double>(outcome.improvements);

    std::optional<bcclb::FitnessOracle> oracle;
    {
      SpanGuard s(tracer, "fitness.oracle_setup", i);
      oracle.emplace(cfg.n, cfg.rounds);
    }
    bcclb::Rng rng(cfg.seed);
    for (std::size_t k = 0; k < kTracedEvalsPerCell; ++k) {
      const bcclb::StrategyTable table =
          bcclb::random_strategy(static_cast<std::uint32_t>(cfg.n), cfg.rounds, cfg.buckets, rng);
      SpanGuard s(tracer, "fitness.evaluate", i);
      (void)oracle->evaluate(table, runner);
    }
    eval_calls += kTracedEvalsPerCell;
    instances += static_cast<double>(oracle->num_instances() * kTracedEvalsPerCell);
    SpanGuard s(tracer, "crossing.certificate_floor", i);
    (void)oracle->certificate_floor_scaled(outcome.best);
  }
  const std::uint64_t replay_ns = now_ns() - replay_t0;
  const double eval_ms = mean_self_ms(tracer, "fitness.evaluate");
  out.layer["fitness.oracle_setup_ms"] = mean_self_ms(tracer, "fitness.oracle_setup");
  out.layer["fitness.eval_ms"] = eval_ms;
  out.layer["round_engine.runs_per_s"] =
      eval_ms > 0 ? instances / (eval_ms * eval_calls / 1e3) : 0;
  out.layer["crossing.certificate_ms"] = mean_self_ms(tracer, "crossing.certificate_floor");
  out.layer["search.evals"] = evals;
  out.layer["search.improvements"] = improvements;
  out.layer["campaign.cell_overhead_ms"] = cells.empty() ? 0 : overhead_ms / cells.size();
  out.layer["trace.overhead_pct"] = trace_overhead_pct(tracer, replay_ns);
  tracer.write_jsonl(o.spans_path);
  return out;
}

// rank_ooc: `bcclb rank --n 8 --field modp` jobs; one op is one tile, timed by
// the arrival of its progress line.

struct RankJob {
  std::vector<double> tile_ms;
  std::string dir;
  std::string certificate;
};

RankJob run_rank_job(const Options& o, std::size_t index, Outcome& out) {
  RankJob job;
  job.dir = o.run_dir + "/rank" + std::to_string(index);
  std::uint64_t last = now_ns();
  Child child({o.bcclb, "rank", "--n", std::to_string(kRankN), "--field", "modp", "--tile-rows",
               std::to_string(kRankTileRows), "--threads", std::to_string(kThreads), "--dir",
               job.dir},
              true, true);
  std::size_t expected = 1;
  bool in_order = true;
  child.follow_stderr([&](const std::string& line, std::uint64_t at) {
    std::size_t done = 0;
    if (std::sscanf(line.c_str(), "tile %zu/", &done) != 1) return;
    in_order = in_order && done == expected++;
    job.tile_ms.push_back(ms_between(last, at));
    last = at;
  });
  job.certificate = child.drain_stdout();
  const ExitInfo exit = child.wait();
  out.cpu_ms += exit.cpu_ms;
  out.peak_rss_mib = std::max(out.peak_rss_mib, exit.max_rss_mib);
  const std::size_t tiles = (bell(kRankN) + kRankTileRows - 1) / kRankTileRows;
  out.attempted += std::max(tiles, job.tile_ms.size());
  maybe_corrupt(o, 0, index, job.certificate);
  std::string why = !exit.ok()                        ? "rank job exited non-zero"
                    : !in_order || job.tile_ms.size() != tiles ? "rank progress lines out of order"
                    : check_rank_certificate(job.certificate, kRankN, kRankCertificate);
  if (!why.empty()) {
    // A wrong certificate fails every tile of the job.
    for (std::size_t t = 0; t < tiles; ++t) out.fail(why);
  }
  return job;
}

Outcome run_rank_ooc(const Options& o) {
  Outcome out;
  cli_setup(o, out);
  const std::size_t min_ops = min_samples_for_tail(o.tail_q);
  std::vector<RankJob> jobs;
  const std::uint64_t start = now_ns();
  while (o.trace ? jobs.empty() : window_open(o, start, out.latencies_ms.size(), min_ops)) {
    jobs.push_back(run_rank_job(o, jobs.size(), out));
    const auto& t = jobs.back().tile_ms;
    out.latencies_ms.insert(out.latencies_ms.end(), t.begin(), t.end());
  }
  out.window_s = ms_between(start, now_ns()) / 1e3;
  if (!o.trace) return out;

  // Traced: segment bytes of the CLI job, then the same elimination RAM-only
  // in-process (per-tile wall from the progress callback), then each tile's
  // generation alone.
  const RankJob& cli = jobs.front();
  const std::size_t dimension = bell(kRankN);
  const std::size_t tiles = cli.tile_ms.size();
  double segment_bytes = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    segment_bytes += static_cast<double>(file_size(bcclb::rank_segment_path(cli.dir, t)));
  }
  Tracer tracer;
  const std::uint64_t replay_t0 = now_ns();
  const std::int64_t job_span = tracer.open("tiled_rank.ram_job", 0);
  std::uint64_t last = now_ns();
  bcclb::TiledRankConfig cfg;
  cfg.n = kRankN;
  cfg.field = bcclb::RankField::kModp;
  cfg.tile_rows = kRankTileRows;
  cfg.threads = kThreads;
  cfg.progress = [&](std::size_t done, std::size_t, std::size_t) {
    const std::uint64_t at = now_ns();
    tracer.add("tiled_rank.tile_ram", last, at, job_span, done - 1);
    last = at;
  };
  const bcclb::TiledRankReport report = bcclb::tiled_partition_rank(cfg);
  tracer.close(job_span);
  ++out.attempted;
  if (report.rank != dimension || report.certificate_digest != kRankCertificate) {
    out.fail("in-process RAM-only rank disagrees with the certificate");
  }
  for (std::size_t t = 0; t < tiles; ++t) {
    SpanGuard s(tracer, "tiled_rank.generate_join_tile", t);
    (void)bcclb::generate_join_tile(kRankN, t * kRankTileRows,
                                    std::min(dimension, (t + 1) * kRankTileRows), kThreads);
  }
  const std::uint64_t replay_ns = now_ns() - replay_t0;
  const double gen_ms = mean_self_ms(tracer, "tiled_rank.generate_join_tile");
  const double ram_ms = mean_self_ms(tracer, "tiled_rank.tile_ram");
  const double cli_ms =
      std::accumulate(cli.tile_ms.begin(), cli.tile_ms.end(), 0.0) / std::max<std::size_t>(tiles, 1);
  out.layer["tiled_rank.tile_gen_ms"] = gen_ms;
  out.layer["tiled_rank.eliminate_ms"] = ram_ms - gen_ms;
  out.layer["checkpoint.segment_io_ms"] = cli_ms - ram_ms;
  out.layer["checkpoint.segment_bytes"] = segment_bytes;
  out.layer["tiled_rank.peak_resident_mib"] =
      static_cast<double>(report.peak_resident_bytes) / (1024.0 * 1024.0);
  out.layer["trace.overhead_pct"] = trace_overhead_pct(tracer, replay_ns);
  tracer.write_jsonl(o.spans_path);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"warm_routed", 99.0, "2 x serve --threads 2, 1 x route, 2 connections", run_warm_routed},
      {"cold_flood", 95.0, "1 x serve --threads 1, 2 connections", run_cold_flood},
      {"search_cells", 90.0, "1 search child at a time", run_search_cells},
      {"rank_ooc", 95.0, "1 rank --threads 2 child at a time", run_rank_ooc},
  };
  return all;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> all = {
      {"wire.decode_request_ns", "ns"},
      {"wire.encode_ok_ns", "ns"},
      {"client.roundtrip_codec_ns", "ns"},
      {"artifact_cache.lookup_ns", "ns"},
      {"artifact_cache.bytes_per_hit", "count"},
      {"artifact_cache.hit_ratio", "ratio"},
      {"backend_pool.rank_ns", "ns"},
      {"router.hop_us", "us"},
      {"router.failovers", "count"},
      {"router.digest_rejected", "count"},
      {"server.residual_us", "us"},
      {"handlers.sim_implicit_ms", "ms"},
      {"soa_engine.rounds_per_s", "1/s"},
      {"server.queue_wait_ms", "ms"},
      {"artifact_cache.insert_ns", "ns"},
      {"artifact_cache.evictions", "count"},
      {"batch_runner.coalesced", "count"},
      {"server.queue_full", "count"},
      {"fitness.oracle_setup_ms", "ms"},
      {"fitness.eval_ms", "ms"},
      {"round_engine.runs_per_s", "1/s"},
      {"crossing.certificate_ms", "ms"},
      {"search.evals", "count"},
      {"search.improvements", "count"},
      {"campaign.cell_overhead_ms", "ms"},
      {"tiled_rank.tile_gen_ms", "ms"},
      {"tiled_rank.eliminate_ms", "ms"},
      {"checkpoint.segment_io_ms", "ms"},
      {"checkpoint.segment_bytes", "count"},
      {"tiled_rank.peak_resident_mib", "MiB"},
      {"trace.overhead_pct", "%"},
  };
  return all;
}

}  // namespace perfbench
