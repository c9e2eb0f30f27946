// Microbenchmarks (google-benchmark): the hot operations behind the
// experiment harnesses — partition joins, crossings, indistinguishability
// graph construction, matrix rank, simulator rounds, sketch updates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>

#include "bcc_lb.h"
#include "partition/join_matrix.h"
#include "crossing/instance_counts.h"
#include "partition/moebius.h"
#include "sketch/l0_sampler.h"

namespace bcclb {
namespace {

void BM_PartitionJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const SetPartition pa = uniform_partition(n, rng);
  const SetPartition pb = uniform_partition(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pa.join(pb));
  }
}
BENCHMARK(BM_PartitionJoin)->Arg(16)->Arg(64)->Arg(256);

void BM_UniformPartitionSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(uniform_partition(n, rng));
  }
}
BENCHMARK(BM_UniformPartitionSample)->Arg(16)->Arg(64);

void BM_StructureCrossing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const CycleStructure cs = random_one_cycle(n, rng);
  const auto edges = cs.directed_edges();
  DirectedEdge e1 = edges[0], e2 = edges[0];
  for (std::size_t a = 0; a < edges.size(); ++a) {
    for (std::size_t b = a + 1; b < edges.size(); ++b) {
      if (cs.edges_independent(edges[a], edges[b])) {
        e1 = edges[a];
        e2 = edges[b];
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs.crossed(e1, e2));
  }
}
BENCHMARK(BM_StructureCrossing)->Arg(16)->Arg(64);

void BM_PortPreservingCrossing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const CycleStructure cs = random_one_cycle(n, rng);
  const BccInstance inst = random_kt0_instance(cs, rng);
  const auto edges = cs.directed_edges();
  DirectedEdge e1 = edges[0], e2 = edges[3 % edges.size()];
  for (std::size_t a = 0; a < edges.size(); ++a) {
    for (std::size_t b = a + 1; b < edges.size(); ++b) {
      if (cs.edges_independent(edges[a], edges[b])) {
        e1 = edges[a];
        e2 = edges[b];
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(port_preserving_crossing(inst, e1, e2));
  }
}
BENCHMARK(BM_PortPreservingCrossing)->Arg(16)->Arg(64);

void BM_IndistGraphBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_indistinguishability_graph(n, all_edges_active()));
  }
}
// n = 10 (|V1| = 181,440) dominates the suite's wall clock; select or skip it
// with --benchmark_filter='BM_IndistGraphBuild/(10|...)' when iterating.
BENCHMARK(BM_IndistGraphBuild)
    ->Arg(6)
    ->Arg(7)
    ->Arg(8)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// Serial vs sharded packed kernel at n = 9; the argument is the thread
// count. Outputs are bit-identical (deterministic ordered merge), so this
// measures the parallel speedup alone.
void BM_IndistGraphBuildThreads(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_indistinguishability_graph(9, all_edges_active(), threads));
  }
}
BENCHMARK(BM_IndistGraphBuildThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_Gf2Rank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BoolMatrix m = partition_join_matrix(n);
  for (auto _ : state) {
    const std::vector<std::uint64_t> bits = m.packed_rows();
    benchmark::DoNotOptimize(
        packed_rank(m.rows, m.cols, (m.cols + 63) / 64, bits.data(), RankField::kGf2, 0));
  }
}
BENCHMARK(BM_Gf2Rank)->Arg(5)->Arg(6)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

// O(n) random access into the RGS-lex order — the primitive that lets a tile
// start at any row without enumerating predecessors.
void BM_UnrankPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint64_t bell = checked_bell_u64(n);
  std::uint64_t i = 0;
  std::vector<std::uint32_t> rgs;
  for (auto _ : state) {
    unrank_rgs(n, i, rgs);
    benchmark::DoNotOptimize(rgs.data());
    i = (i + 0x9e3779b97f4a7c15ULL) % bell;  // stride through the order
  }
}
BENCHMARK(BM_UnrankPartition)->Arg(9)->Arg(16)->Arg(25);

// On-the-fly generation of one 256-row tile of M_n: unrank + streamed rows +
// one prefix-shared DFS per row over all B_n columns.
void BM_TileGen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::uint64_t bell = checked_bell_u64(n);
  const std::size_t rows = std::min<std::uint64_t>(256, bell);
  const std::size_t lo = (bell - rows) / 2;  // mid-matrix, not the easy prefix
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_join_tile(n, lo, lo + rows, 1));
  }
}
BENCHMARK(BM_TileGen)->Arg(7)->Arg(8)->Arg(9)->Unit(benchmark::kMillisecond);

// The out-of-core engine end to end on a dense-feasible size — compare
// against BM_Gf2Rank/8 (dense) to see the cost of streaming.
void BM_TiledRank(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    TiledRankConfig config;
    config.n = n;
    config.field = RankField::kModp;
    config.tile_rows = 256;
    config.threads = 1;
    benchmark::DoNotOptimize(tiled_partition_rank(config));
  }
}
BENCHMARK(BM_TiledRank)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

// Seed-style reference round loop: fresh per-round message vectors, a fresh
// per-run transcript sized to the cap, and per-vertex KT-1 table rebuilds —
// the allocation profile RoundEngine was built to eliminate. Kept here (via
// public APIs only) so BM_RoundEngineBoruvka has a stable baseline.
RunResult reference_run(const BccInstance& instance, unsigned bandwidth,
                        const AlgorithmFactory& factory, unsigned max_rounds) {
  const std::size_t n = instance.num_vertices();
  std::vector<std::unique_ptr<VertexAlgorithm>> vertices;
  std::vector<Kt1ViewData> per_vertex_kt1;  // deliberately one rebuild per vertex
  per_vertex_kt1.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    per_vertex_kt1.push_back(Kt1ViewData::build(instance));
    auto alg = factory();
    alg->init(make_local_view(instance, v, bandwidth, &per_vertex_kt1.back(), nullptr));
    vertices.push_back(std::move(alg));
  }
  RunResult result;
  result.transcript = Transcript(n, max_rounds);
  unsigned t = 0;
  for (; t < max_rounds; ++t) {
    bool done = true;
    for (const auto& v : vertices) done = done && v->finished();
    if (done) break;
    std::vector<Message> outbox(n, Message::silent());  // fresh every round
    for (VertexId v = 0; v < n; ++v) {
      outbox[v] = vertices[v]->broadcast(t);
      result.transcript.record(v, t, outbox[v]);
      result.total_bits_broadcast += outbox[v].num_bits();
    }
    for (VertexId v = 0; v < n; ++v) {
      std::vector<Message> inbox(n - 1);  // fresh every vertex
      for (Port p = 0; p + 1 < n; ++p) inbox[p] = outbox[instance.wiring().peer(v, p)];
      vertices[v]->receive(t, inbox);
    }
  }
  result.rounds_executed = t;
  result.transcript.truncate(t);
  return result;
}

void BM_SeedStyleBoruvka(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Graph g = random_one_cycle(n, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  const unsigned b = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference_run(inst, b, boruvka_factory(), BoruvkaAlgorithm::max_rounds(n, b)));
  }
}
BENCHMARK(BM_SeedStyleBoruvka)->Arg(16)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_RoundEngineBoruvka(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Graph g = random_one_cycle(n, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  const unsigned b = 8;
  RoundEngine engine;  // reused across iterations: the zero-allocation path
  engine.reserve(n, BoruvkaAlgorithm::max_rounds(n, b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(inst, b, boruvka_factory(), BoruvkaAlgorithm::max_rounds(n, b)));
  }
}
BENCHMARK(BM_RoundEngineBoruvka)->Arg(16)->Arg(64)->Arg(128)->Unit(benchmark::kMicrosecond);

// Serial vs batched sweep: 64 independent Boruvka runs at n = 256 (the
// experiment-harness workload shape). The serial loop still reuses one
// engine — the batched variant's speedup on multi-core machines is pure
// parallelism, not an allocation artifact. Thread count is the benchmark
// argument; compare BatchSweep/1 against BatchSweep/<cores>.
std::vector<BatchJob> sweep_jobs(std::size_t n, std::size_t count) {
  Rng rng(12);
  std::vector<BatchJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back({BccInstance::kt1(random_one_cycle(n, rng).to_graph()), boruvka_factory(),
                    8, BoruvkaAlgorithm::max_rounds(n, 8), CoinSpec::none()});
  }
  return jobs;
}

void BM_SerialSweep(benchmark::State& state) {
  const auto jobs = sweep_jobs(256, 64);
  RoundEngine engine;
  for (auto _ : state) {
    std::uint64_t bits = 0;
    for (const BatchJob& job : jobs) {
      bits += engine.run(job.instance, job.bandwidth, job.factory, job.max_rounds)
                  .total_bits_broadcast;
    }
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_SerialSweep)->Unit(benchmark::kMillisecond);

void BM_BatchSweep(benchmark::State& state) {
  const auto jobs = sweep_jobs(256, 64);
  const BatchRunner runner(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(jobs));
  }
}
BENCHMARK(BM_BatchSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_SketchUpdate(benchmark::State& state) {
  L0Sampler s({1u << 20, 7, 0});
  std::uint64_t i = 0;
  for (auto _ : state) {
    s.update(i++ % (1u << 20), 1);
  }
}
BENCHMARK(BM_SketchUpdate);

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = build_indistinguishability_graph(n, all_edges_active());
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_bipartite_matching(g.adj, g.two_cycles.size()));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(7)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_BellNumberExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bell_number(n).log2());
  }
}
BENCHMARK(BM_BellNumberExact)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_PartitionIndex(benchmark::State& state) {
  Rng rng(8);
  const SetPartition p = uniform_partition(20, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_index(p));
  }
}
BENCHMARK(BM_PartitionIndex);

void BM_MoebiusLattice(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moebius_from_finest(n));
  }
}
BENCHMARK(BM_MoebiusLattice)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_InstanceCountClosedForm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_to_one_cycle_ratio(n));
  }
}
BENCHMARK(BM_InstanceCountClosedForm)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);

// Serving layer: the cache-hit path (hash lookup + LRU bump + full FNV-1a
// re-verification of the stored bytes, so cost scales with artifact size)
// and the wire codec that every request crosses twice.
void BM_ArtifactCacheHit(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  ArtifactCache cache(64u << 20);
  std::string artifact(bytes, 'x');
  for (std::size_t i = 0; i < bytes; ++i) artifact[i] = static_cast<char>(i * 131);
  cache.insert(0x9e3779b97f4a7c15ULL, std::move(artifact));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(0x9e3779b97f4a7c15ULL));
  }
}
BENCHMARK(BM_ArtifactCacheHit)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_RequestCodecRoundTrip(benchmark::State& state) {
  Request request;
  request.type = RequestType::kIndistGraph;
  request.n = 8;
  for (auto _ : state) {
    const std::string payload = encode_request_payload(request);
    benchmark::DoNotOptimize(
        decode_request(static_cast<std::uint8_t>(request.type), payload));
    benchmark::DoNotOptimize(request_cache_key(request));
  }
}
BENCHMARK(BM_RequestCodecRoundTrip);

void BM_CoalescePlan(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::uint64_t> keys(count);
  for (auto& k : keys) k = rng.next_below(count / 4 + 1);  // ~4x duplication
  for (auto _ : state) {
    benchmark::DoNotOptimize(coalesce_by_key(keys));
  }
}
BENCHMARK(BM_CoalescePlan)->Arg(64)->Arg(1024);

// One fitness evaluation of a strategy table: the search inner loop — the
// table's state machine over every canonical instance's flat start states,
// plus the serial exact tally. Budget planning for `bcclb search` reads
// straight off this number.
void BM_StrategyEval(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const FitnessOracle oracle(n, 2);
  const BatchRunner runner(1);
  Rng rng(2019);
  const StrategyTable table = random_strategy(static_cast<std::uint32_t>(n), 2, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.evaluate(table, runner));
  }
}
BENCHMARK(BM_StrategyEval)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_RandomizedPlsVerify(benchmark::State& state) {
  Rng rng(9);
  const BccInstance inst = BccInstance::kt1(random_one_cycle(64, rng).to_graph());
  const auto labels = prove_randomized_connectivity(inst);
  const PublicCoins coins(3, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_randomized_pls(inst, labels, 8, coins));
  }
}
BENCHMARK(BM_RandomizedPlsVerify)->Unit(benchmark::kMicrosecond);

// Implicit-instance layer: the O(1) neighborhood/wiring queries every SoA
// round is built from, the cache-blocked reduction that closes each round,
// and the end-to-end implicit flood at 10^5 vertices.
void BM_ImplicitNeighborQuery(benchmark::State& state) {
  ImplicitSpec spec;
  spec.n = static_cast<std::uint64_t>(state.range(0));
  spec.family = ImplicitFamily::kTwoCycle;
  spec.seed = 2019;
  const ImplicitInstance inst(spec);
  std::vector<VertexId> nbrs;
  VertexId v = 0;
  for (auto _ : state) {
    inst.neighbors(v, nbrs);
    benchmark::DoNotOptimize(nbrs.data());
    v = (v + 7919) % static_cast<VertexId>(spec.n);  // stride through the graph
  }
}
BENCHMARK(BM_ImplicitNeighborQuery)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

// The whole input graph in one walk over cycle positions (the SoA flood's
// init), at cold_flood's n and at the scale run's.
void BM_ImplicitAdjacency(benchmark::State& state) {
  ImplicitSpec spec;
  spec.n = static_cast<std::uint64_t>(state.range(0));
  spec.family = ImplicitFamily::kOneCycle;
  spec.seed = 2019;
  const ImplicitInstance inst(spec);
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> targets;
  for (auto _ : state) {
    inst.adjacency(offsets, targets);
    benchmark::DoNotOptimize(targets.data());
  }
}
BENCHMARK(BM_ImplicitAdjacency)->Arg(1 << 15)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_ImplicitPeerQuery(benchmark::State& state) {
  ImplicitSpec spec;
  spec.n = static_cast<std::uint64_t>(state.range(0));
  const ImplicitInstance inst(spec);
  VertexId v = 1;
  Port p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst.peer(v, p));
    p = (p + 1) % static_cast<Port>(spec.n - 1);
    v = (v + 13) % static_cast<VertexId>(spec.n);
  }
}
BENCHMARK(BM_ImplicitPeerQuery)->Arg(1 << 10)->Arg(1 << 20);

void BM_BitsetMinMaxReduce(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::vector<std::uint64_t> values(1 << 20);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto& v : values) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    v = x;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_max_values(values, threads));
  }
}
// Worker threads burn CPU outside the main thread, so the default cpu_time
// (main thread only) would under-report the threaded rows ~40x; measure
// process-wide CPU and report wall time instead.
BENCHMARK(BM_BitsetMinMaxReduce)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ImplicitFloodScale(benchmark::State& state) {
  ImplicitSpec spec;
  spec.n = static_cast<std::uint64_t>(state.range(0));
  spec.family = ImplicitFamily::kTwoCycle;
  spec.seed = 2019;
  const InstanceView view(spec);
  const unsigned bandwidth =
      std::max(1u, static_cast<unsigned>(std::bit_width(spec.n - 1)));
  for (auto _ : state) {
    SoaMinIdFlood program;
    SoaRoundEngine engine;
    const SoaRunResult result = engine.run(view, bandwidth, program,
                                           SoaMinIdFlood::rounds_needed(spec.n));
    benchmark::DoNotOptimize(result.labels_digest);
  }
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(spec.n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ImplicitFloodScale)->Arg(1 << 15)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bcclb

BENCHMARK_MAIN();
