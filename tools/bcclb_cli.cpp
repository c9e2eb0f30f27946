// bcclb — command-line front end to the laboratory's engines.
//
// Subcommands (run `bcclb help` for the synopsis):
//   counts <n>                 instance-space sizes and the Lemma 3.9 ratio
//   star <n> <t> <adversary>   Theorem 3.5 star-distribution experiment
//   kt0 <n> <t> <adversary>    Theorem 3.1 matching experiment (n <= 9)
//   rules <n> <t> <adversary>  E17 decision-rule optimization (n <= 9)
//   rank <n>                   Theorem 2.3 / Lemma 4.1 join-matrix ranks
//   info <n> [keep]            Theorem 4.5 information experiment (n <= 10)
//   reduce <n> [seed]          Figure 2 pipeline on random partitions
//   upper <n> <b> [seed]       tightness sweep (flood / Boruvka / sketches)
//   bfs <n> <p> [seed]         CONGEST BFS distances and eccentricity
//   faults <n> <b> [seed]      fault-budget sweep + replay verification
//   campaign <dir> [seed]      checkpointed standard campaign into <dir>
//   campaign --resume <dir>    re-run only the unfinished jobs
//   campaign --verify [golden] re-run in memory, diff digests vs golden.json
//   search <dir> …             adversary strategy-search campaign (DESIGN.md §11)
//   sim --implicit …           min-ID flood on an implicit instance (n to 10^6)
//   serve …                    long-lived daemon on a Unix or TCP socket
//   route …                    shard router fronting N serve daemons
//   probe …                    one-shot stats round trip (prints the artifact)
//   loadgen …                  seeded load generator against a running daemon
//   version                    git describe baked in at configure time
//
// Argument parsing is strict: every numeric argument must be a whole,
// in-range number or the command refuses with usage (exit 2); unknown
// subcommands and unknown flags do the same. Errors out
// of the library surface as typed BcclbError with kind + context; anything
// else is a plain std::exception. No helper calls std::exit — all exits
// flow through main.
//
// SIGINT/SIGTERM during a campaign set a sig_atomic_t flag the runner polls
// between job batches: the run flushes a final checkpoint, prints the resume
// command, and exits 130 instead of dying dirty.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bcc_lb.h"
#include "common/mathutil.h"

using namespace bcclb;

namespace {

// Strict whole-string parse helpers. Reject empty strings, trailing junk
// ("7x"), out-of-range values, and (for the unsigned parsers) negatives —
// strtoul would silently wrap "-3" to a huge value.
std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr || *s == '\0' || *s == '-') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::optional<std::size_t> parse_size(const char* s) {
  const auto v = parse_u64(s);
  if (!v || static_cast<std::uint64_t>(static_cast<std::size_t>(*v)) != *v) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::optional<unsigned> parse_unsigned(const char* s) {
  const auto v = parse_u64(s);
  if (!v || static_cast<std::uint64_t>(static_cast<unsigned>(*v)) != *v) return std::nullopt;
  return static_cast<unsigned>(*v);
}

std::optional<double> parse_double(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) return std::nullopt;
  return value;
}

// Returns nullopt (rather than exiting) on an unknown name; the caller
// prints the options and falls through to usage.
std::optional<AdversaryKind> parse_adversary(const char* name) {
  for (const AdversaryKind kind : all_adversary_kinds()) {
    if (std::strcmp(name, adversary_kind_name(kind)) == 0) return kind;
  }
  std::fprintf(stderr, "unknown adversary '%s'; options:", name);
  for (const AdversaryKind kind : all_adversary_kinds()) {
    std::fprintf(stderr, " %s", adversary_kind_name(kind));
  }
  std::fprintf(stderr, "\n");
  return std::nullopt;
}

int cmd_counts(std::size_t n) {
  std::printf("|V1| (one-cycle structures) = %s\n",
              count_one_cycle_structures(n).to_decimal().c_str());
  std::printf("|V2| (two-cycle structures) = %s\n",
              count_two_cycle_structures(n).to_decimal().c_str());
  std::printf("ratio = %.6f, H(n/2) - 3/2 = %.6f  (Lemma 3.9: Theta(log n))\n",
              two_to_one_cycle_ratio(n), harmonic(n / 2) - 1.5);
  return 0;
}

int cmd_star(std::size_t n, unsigned t, AdversaryKind kind) {
  const PublicCoins coins(1, 4096);
  const auto rep = star_error_experiment(
      n, t, two_cycle_adversary_factory(kind, t, always_yes_rule()), &coins);
  std::printf("|S| = %zu, largest class |S'| = %zu (pigeonhole floor %.3f)\n",
              rep.independent_set_size, rep.largest_class_size, rep.pigeonhole_floor);
  std::printf("forced error = %.6f (theory floor %.6f)\n", rep.forced_error, rep.theory_floor);
  std::printf("crossings verified indistinguishable: %zu/%zu\n", rep.crossings_verified,
              rep.crossings_checked);
  return 0;
}

int cmd_kt0(std::size_t n, unsigned t, AdversaryKind kind) {
  const PublicCoins coins(1, 4096);
  const auto rep = kt0_matching_experiment(
      n, t, two_cycle_adversary_factory(kind, t, always_yes_rule()), &coins);
  std::printf("|V1| = %zu, |V2| = %zu (ratio %.4f, prediction %.4f)\n", rep.v1, rep.v2,
              rep.size_ratio, rep.harmonic_prediction);
  std::printf("best label (x|y) = %s, graph edges = %zu\n", rep.best_label.c_str(),
              rep.graph_edges);
  std::printf("max matching = %zu, max saturating k = %u\n", rep.max_matching,
              rep.max_saturating_k);
  std::printf("certified error >= %.6f, measured error = %.6f\n", rep.matching_error_bound,
              rep.measured_error);
  return 0;
}

int cmd_rules(std::size_t n, unsigned t, AdversaryKind kind) {
  const PublicCoins coins(1, 4096);
  const auto rep = optimize_decision_rule(
      n, t, two_cycle_adversary_factory(kind, t, always_yes_rule()), &coins);
  std::printf("states = %zu, voting NO = %zu\n", rep.num_states, rep.states_voting_no);
  std::printf("greedy-optimized error = %.6f (always-YES = %.2f)\n", rep.greedy_error,
              rep.always_yes_error);
  return 0;
}

int cmd_rank(std::size_t n) {
  if (n <= 8) {
    const auto r = partition_matrix_rank(n);
    std::printf("rank(M_%zu) = %zu / %zu (%s) — log-rank bound %.2f bits\n", n,
                std::max(r.rank_gf2, r.rank_modp), r.dimension,
                r.full_rank ? "full" : "NOT FULL", r.log_rank_bound());
  } else {
    std::printf("rank(M_%zu) = B_%zu (Theorem 2.3): bound = log2(B_n) = %.1f bits\n", n, n,
                partition_cc_lower_bound(n));
  }
  if (n % 2 == 0 && n <= 12) {
    const auto r = two_partition_matrix_rank(n);
    std::printf("rank(E_%zu) = %zu / %zu (%s)\n", n, std::max(r.rank_gf2, r.rank_modp),
                r.dimension, r.full_rank ? "full" : "NOT FULL");
  }
  return 0;
}

int usage();

// Set by the SIGINT/SIGTERM handler, polled by CampaignRunner between job
// batches and by the tiled rank engine between tiles. sig_atomic_t is the
// only type async-signal-safe to write from a handler; everything else
// (checkpoint flush, messaging) happens on the main thread once the runner
// notices the flag.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void on_campaign_signal(int) { g_interrupted = 1; }

// Flag-based `rank --n N …`: the out-of-core tiled elimination
// (linalg/tiled_rank.h). Streams M_n tile by tile, checkpoints into --dir,
// and prints/writes a rank certificate whose digest is bit-identical across
// thread counts and across SIGKILL + --resume.
int cmd_rank_tiled(int argc, char** argv) {
  TiledRankConfig config;
  std::optional<std::size_t> n;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--n") {
      n = parse_size(next());
      if (!n) return usage();
    } else if (flag == "--field") {
      const char* value = next();
      if (value == nullptr) return usage();
      const auto field = parse_rank_field(value);
      if (!field) {
        std::fprintf(stderr, "unknown field '%s'; options: gf2 modp\n", value);
        return usage();
      }
      config.field = *field;
    } else if (flag == "--prime") {
      const auto p = parse_u64(next());
      if (!p) return usage();
      config.prime = *p;
    } else if (flag == "--tile-rows") {
      const auto k = parse_size(next());
      if (!k || *k == 0) return usage();
      config.tile_rows = *k;
    } else if (flag == "--dir") {
      const char* value = next();
      if (value == nullptr || *value == '\0') return usage();
      config.dir = value;
    } else if (flag == "--resume") {
      config.resume = true;
    } else if (flag == "--threads") {
      const auto t = parse_unsigned(next());
      if (!t) return usage();
      config.threads = *t;
    } else if (flag == "--mem-budget") {
      const char* value = next();
      if (value == nullptr) return usage();
      const auto budget = parse_mem_bytes(value);
      if (!budget) return usage();
      config.mem_budget_bytes = *budget;
    } else {
      std::fprintf(stderr, "unknown rank flag '%s'\n", flag.c_str());
      return usage();
    }
  }
  if (!n) return usage();
  config.n = *n;
  if (config.resume && config.dir.empty()) {
    std::fprintf(stderr, "rank --resume needs --dir <dir> (the checkpoint lives there)\n");
    return usage();
  }

  // BCCLB_MEM_BUDGET is a real resource contract, not a tuning hint: a
  // malformed value must fail loudly rather than silently run unbounded.
  if (config.mem_budget_bytes == 0) {
    if (const char* env = std::getenv("BCCLB_MEM_BUDGET")) {
      const auto budget = parse_mem_bytes(env);
      if (!budget) {
        std::fprintf(stderr, "malformed BCCLB_MEM_BUDGET '%s' (want bytes with optional K/M/G)\n",
                     env);
        return 2;
      }
      config.mem_budget_bytes = *budget;
    }
  }
  // Test hooks mirroring the campaign runner's: strict-parsed, ignored when
  // malformed. The delay widens the SIGKILL window for rank_smoke.sh.
  if (const char* env = std::getenv("BCCLB_RANK_STOP_AFTER")) {
    if (const auto v = parse_size(env)) config.stop_after_tiles = *v;
  }
  if (const char* env = std::getenv("BCCLB_RANK_TILE_DELAY_MS")) {
    if (const auto v = parse_u64(env)) config.inter_tile_delay_ns = *v * 1'000'000ULL;
  }

  std::signal(SIGINT, on_campaign_signal);
  std::signal(SIGTERM, on_campaign_signal);
  config.interrupt = &g_interrupted;
  config.progress = [](std::size_t done, std::size_t total, std::size_t rank) {
    std::fprintf(stderr, "tile %zu/%zu eliminated, rank %zu\n", done, total, rank);
  };

  const auto t0 = std::chrono::steady_clock::now();
  const TiledRankReport report = tiled_partition_rank(config);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!report.complete) {
    if (g_interrupted) {
      std::fprintf(stderr,
                   "interrupted after %zu/%zu tiles (rank so far %zu): checkpoint flushed\n"
                   "resume with: bcclb rank --n %zu --field %s --tile-rows %zu --dir %s --resume\n",
                   report.tiles_resumed + report.tiles_run, report.tiles_total, report.rank,
                   config.n, rank_field_name(config.field), config.tile_rows, config.dir.c_str());
      return 130;
    }
    std::printf("stopped after %zu/%zu tiles (rank so far %zu); checkpoint in %s\n",
                report.tiles_resumed + report.tiles_run, report.tiles_total, report.rank,
                config.dir.c_str());
    return 0;
  }

  char certificate[512];
  std::snprintf(certificate, sizeof(certificate),
                "bcclb rank certificate v1\n"
                "matrix M_%zu\n"
                "dimension %zu\n"
                "field %s\n"
                "prime %llu\n"
                "tile-rows %zu\n"
                "tiles %zu\n"
                "rank %zu\n"
                "full-rank %s\n"
                "certificate %s\n",
                config.n, report.dimension, rank_field_name(config.field),
                static_cast<unsigned long long>(
                    config.field == RankField::kModp ? config.prime : 0),
                config.tile_rows, report.tiles_total, report.rank,
                report.full_rank ? "yes" : "no", report.certificate_digest.c_str());
  std::fputs(certificate, stdout);
  // rank_p(M_n) = Σ_{k ≤ min(p, n)} S(n, k) by the Dowling–Wilson
  // factorization M_n = Z·D·Zᵀ; an elimination that disagrees is broken.
  const std::uint64_t p = config.field == RankField::kModp ? config.prime : 2;
  const std::uint64_t predicted = predicted_join_rank(config.n, p);
  std::printf(
      "tiles run %zu, resumed %zu; segments read %zu, skipped %zu; peak resident %.1f MiB; "
      "predicted rank %llu; wall %.3f s\n",
      report.tiles_run, report.tiles_resumed, report.segments_read, report.segments_skipped,
      static_cast<double>(report.peak_resident_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(predicted), wall_s);
  if (report.rank != predicted) {
    throw VerifierAnomalyError("rank of M_" + std::to_string(config.n) + " mod " +
                               std::to_string(p) + " is " + std::to_string(report.rank) +
                               " but predicted_join_rank gives " + std::to_string(predicted) +
                               "; rank.txt not written");
  }
  if (!config.dir.empty()) {
    const std::string path = config.dir + "/rank.txt";
    write_file_atomic(path, certificate);
    std::printf("certificate written to %s\n", path.c_str());
  }
  return 0;
}

int cmd_info(std::size_t n, double keep) {
  const auto r = partition_comp_information(n, keep);
  std::printf("H(PA) = %.3f bits, realized error = %.3f\n", r.h_pa, r.realized_error);
  std::printf("I(PA; Pi) = %.3f >= (1-eps)H - 1 = %.3f  (Theorem 4.5)\n",
              r.mutual_information, r.fano_floor);
  std::printf("implied BCC(1) ConnectedComponents rounds >= %.3f\n", r.implied_bcc_rounds);
  return 0;
}

int cmd_reduce(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const SetPartition pa = uniform_partition(n, rng);
  const SetPartition pb = uniform_partition(n, rng);
  std::printf("PA      = %s\nPB      = %s\n", pa.to_string().c_str(), pb.to_string().c_str());
  std::printf("PA v PB = %s\n", pa.join(pb).to_string().c_str());
  const auto out = solve_partition_via_bcc(pa, pb, boruvka_factory(), 6, 800);
  std::printf("BCC decided %s in %u rounds, %llu protocol bits\n",
              out.sim.decision ? "CONNECTED" : "DISCONNECTED", out.sim.bcc_rounds,
              static_cast<unsigned long long>(out.sim.total_bits()));
  std::printf("recovered join %s the lattice join\n",
              out.recovered_join && *out.recovered_join == out.expected_join ? "matches"
                                                                             : "MISMATCHES");
  return 0;
}

int cmd_upper(std::size_t n, unsigned b, std::uint64_t seed) {
  Rng rng(seed);
  const auto p = measure_upper_bounds(random_one_cycle(n, rng).to_graph(), b, "one-cycle", seed);
  std::printf("one-cycle n=%zu b=%u:\n", n, b);
  if (p.flood_ran) {
    std::printf("  flooding : %u rounds (%s)\n", p.flood_rounds, p.flood_correct ? "ok" : "WRONG");
  }
  std::printf("  boruvka  : %u rounds (%s)\n", p.boruvka_rounds,
              p.boruvka_correct ? "ok" : "WRONG");
  if (p.sketch_ran) {
    std::printf("  sketches : %u rounds, %llu bits/vertex (%s)\n", p.sketch_rounds,
                static_cast<unsigned long long>(p.sketch_bits_per_vertex),
                p.sketch_correct ? "ok" : "MC-miss");
  }
  std::printf("  lower-bound reference log2(n)/b = %.2f\n", p.lower_bound_rounds);
  return 0;
}

int cmd_bfs(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  const Graph g = random_gnp(n, p, rng);
  const BfsRun out = run_congest_bfs(g, 0);
  std::size_t reached = 0;
  for (const auto& d : out.distances) {
    if (d.has_value()) ++reached;
  }
  std::printf("CONGEST BFS from 0 on G(%zu, %.3f): %u rounds, reached %zu/%zu,\n",
              n, p, out.run.rounds_executed, reached, n);
  std::printf("eccentricity %u (rounds = ecc + O(1): distances cost Theta(D))\n",
              out.eccentricity);
  return 0;
}

int cmd_faults(std::size_t n, unsigned b, std::uint64_t seed) {
  FaultSweepConfig config;
  config.n = n;
  config.bandwidth = b;
  config.seed = seed;
  const FaultBudgetReport report = sweep_fault_budget(config);
  std::printf("fault budgets on a one-cycle, n=%zu b=%u seed=%llu (sweep 0..%u, %u trials):\n",
              n, b, static_cast<unsigned long long>(seed), config.max_faults, config.trials);
  for (const FaultSweepAlgorithm algorithm :
       {FaultSweepAlgorithm::kMinIdFlood, FaultSweepAlgorithm::kBoruvka,
        FaultSweepAlgorithm::kSketch}) {
    std::printf("  %-8s crash=%u drop=%u flip=%u\n", fault_sweep_algorithm_name(algorithm),
                report.budget(algorithm, FaultKind::kCrashStop),
                report.budget(algorithm, FaultKind::kDropBroadcast),
                report.budget(algorithm, FaultKind::kFlipBits));
  }
  std::printf("jobs: %zu ok, %zu failed, %zu timed out\n", report.jobs_ok, report.jobs_failed,
              report.jobs_timed_out);

  Rng rng(seed);
  const BccInstance instance = BccInstance::kt1(random_one_cycle(n, rng).to_graph());
  FaultCounts counts;
  counts.crashes = 1;
  counts.drops = 1;
  const FaultPlan plan = FaultPlan::random(seed + 77, n, 8, counts);
  const ReplayReport rep =
      verify_replay(instance, b, boruvka_factory(), BoruvkaAlgorithm::max_rounds(n, b),
                    CoinSpec::none(), &plan);
  if (rep.errored) {
    std::printf("replay: both runs threw -> %s\n",
                rep.deterministic ? "deterministic" : "NONDETERMINISTIC");
  } else {
    std::printf("replay: digests %016llx/%016llx -> %s\n",
                static_cast<unsigned long long>(rep.digest_first),
                static_cast<unsigned long long>(rep.digest_second),
                rep.deterministic ? "deterministic" : "NONDETERMINISTIC");
  }
  return 0;
}

// Shared checkpointed-run plumbing for the `campaign` and `search`
// subcommands: signal handlers, env hooks, the report print, and the
// exit-130 resume hint (`resume_cmd` names the subcommand in it).
int run_checkpointed_campaign(const Campaign& campaign, const char* dir, bool resume,
                              const char* resume_cmd) {
  std::signal(SIGINT, on_campaign_signal);
  std::signal(SIGTERM, on_campaign_signal);

  CampaignConfig config;
  config.dir = dir;
  config.resume = resume;
  config.interrupt = &g_interrupted;
  // Ops/test hooks, strict-parsed like every other env override (malformed
  // values are ignored, never trusted): a clean stop after N batches, and a
  // between-batch throttle the kill-and-resume smoke tests use to widen the
  // window a real SIGKILL can land in.
  if (const char* env = std::getenv("BCCLB_CAMPAIGN_STOP_AFTER")) {
    if (const auto v = parse_unsigned(env)) config.stop_after_batches = *v;
  }
  if (const char* env = std::getenv("BCCLB_CAMPAIGN_BATCH_DELAY_MS")) {
    if (const auto v = parse_u64(env)) config.inter_batch_delay_ns = *v * 1'000'000ULL;
  }
  const CampaignReport report = CampaignRunner(config).run(campaign);

  std::printf("campaign '%s' seed %llu: %u worker(s)", campaign.name.c_str(),
              static_cast<unsigned long long>(campaign.seed), report.planned_workers);
  if (report.mem_budget_bytes != 0) {
    std::printf(", memory budget %llu bytes",
                static_cast<unsigned long long>(report.mem_budget_bytes));
  }
  std::printf("\n");
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const CampaignJobRecord& rec = report.records[i];
    std::printf("  %-10s %-24s", campaign_job_state_name(rec.state),
                campaign.jobs[i].name.c_str());
    if (rec.ok()) {
      std::printf(" digest %s%s (%.1f ms)\n", digest_hex(rec.digest).c_str(),
                  rec.resumed ? " [resumed]" : "", rec.wall_time_ns / 1e6);
    } else if (rec.state == CampaignJobState::kPending) {
      std::printf("\n");
    } else {
      std::printf(" (%s) %s\n", rec.error_kind.c_str(), rec.error.c_str());
    }
  }

  if (report.interrupted) {
    std::fprintf(stderr,
                 "interrupted: checkpoint flushed, %zu job(s) still pending\n"
                 "resume with: bcclb %s --resume %s\n",
                 report.num_pending, resume_cmd, dir);
    return 130;
  }
  if (!report.all_done()) {
    std::fprintf(stderr, "campaign incomplete: %zu failed, %zu timed out, %zu refused\n",
                 report.num_failed, report.num_timed_out, report.num_refused);
    return 1;
  }
  std::printf("campaign complete: %zu/%zu jobs (%zu resumed); artifacts in %s\n",
              report.num_done, report.records.size(), report.resumed_jobs, dir);
  std::printf("golden digests: %s\n", campaign_golden_path(dir).c_str());
  return 0;
}

int cmd_campaign_run(const char* dir, std::uint64_t seed, bool resume) {
  return run_checkpointed_campaign(standard_campaign(seed), dir, resume, "campaign");
}

// In-memory re-run + digest diff against a golden store; shared by
// `campaign --verify` and `search --verify`.
int verify_campaign_golden(const char* golden_path, const GoldenStore& golden,
                           const Campaign& campaign) {
  if (golden.campaign != campaign.name) {
    std::fprintf(stderr, "golden store '%s' describes campaign '%s', not '%s'\n", golden_path,
                 golden.campaign.c_str(), campaign.name.c_str());
    return 1;
  }

  CampaignConfig config;  // in-memory: no checkpoint, no artifacts
  config.interrupt = &g_interrupted;
  std::signal(SIGINT, on_campaign_signal);
  std::signal(SIGTERM, on_campaign_signal);
  const CampaignReport report = CampaignRunner(config).run(campaign);
  if (report.interrupted) {
    std::fprintf(stderr, "verification interrupted\n");
    return 130;
  }
  if (!report.all_done()) {
    std::fprintf(stderr, "verification run incomplete: %zu failed, %zu timed out, %zu refused\n",
                 report.num_failed, report.num_timed_out, report.num_refused);
    return 1;
  }

  const GoldenStore fresh = GoldenStore::from_report(campaign, report);
  const auto mismatches = diff_golden(golden, fresh);
  if (!mismatches.empty()) {
    std::fprintf(stderr, "golden digest verification FAILED (%zu mismatch(es) vs %s):\n",
                 mismatches.size(), golden_path);
    for (const GoldenMismatch& m : mismatches) {
      std::fprintf(stderr, "  %-24s expected %s, got %s\n", m.job.c_str(), m.expected.c_str(),
                   m.actual.c_str());
    }
    return 1;
  }
  std::printf("golden digests verified: %zu job(s) match %s\n", golden.digests.size(),
              golden_path);
  return 0;
}

int cmd_campaign_verify(const char* golden_path) {
  const GoldenStore golden = GoldenStore::from_json(read_file(golden_path));
  return verify_campaign_golden(golden_path, golden, standard_campaign(golden.seed));
}

std::optional<SearchDriver> parse_search_driver(const char* name) {
  if (std::strcmp(name, "random") == 0) return SearchDriver::kRandom;
  if (std::strcmp(name, "evolution") == 0) return SearchDriver::kEvolution;
  if (std::strcmp(name, "exhaustive") == 0) return SearchDriver::kExhaustive;
  std::fprintf(stderr, "unknown driver '%s'; options: random evolution exhaustive\n", name);
  return std::nullopt;
}

// The adversary strategy hunt (DESIGN.md §11). The default form runs the
// standard search campaign through the checkpointed CampaignRunner into
// <dir> — kill it (even -9) and `bcclb search --resume <dir>` finishes the
// remaining cells bit-identically. Cell flags (--n/--rounds/…) run one
// ad-hoc cell the same way; --verify re-runs the standard campaign in
// memory and diffs digests against the checked-in golden store.
int cmd_search(int argc, char** argv) {
  const char* dir = nullptr;
  bool resume = false;
  bool verify = false;
  const char* golden_path = "results/search_golden.json";
  std::uint64_t seed = 2019;
  SearchConfig cell;
  bool have_cell = false;

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--resume") {
      resume = true;
    } else if (flag == "--verify") {
      verify = true;
      if (value != nullptr && value[0] != '-') {
        golden_path = value;
        ++i;
      }
    } else if (flag == "--dir" && value != nullptr) {
      dir = value;
      ++i;
    } else if (flag == "--seed" && value != nullptr) {
      const auto s = parse_u64(value);
      if (!s) return usage();
      seed = *s;
      ++i;
    } else if (flag == "--n" && value != nullptr) {
      const auto n = parse_size(value);
      if (!n) return usage();
      cell.n = *n;
      have_cell = true;
      ++i;
    } else if (flag == "--rounds" && value != nullptr) {
      const auto t = parse_unsigned(value);
      if (!t || *t == 0) return usage();
      cell.rounds = *t;
      have_cell = true;
      ++i;
    } else if (flag == "--buckets" && value != nullptr) {
      const auto k = parse_unsigned(value);
      if (!k || *k == 0 || *k > 64) return usage();
      cell.buckets = *k;
      have_cell = true;
      ++i;
    } else if (flag == "--budget" && value != nullptr) {
      const auto b = parse_u64(value);
      if (!b) return usage();
      cell.budget = *b;
      have_cell = true;
      ++i;
    } else if (flag == "--driver" && value != nullptr) {
      const auto d = parse_search_driver(value);
      if (!d) return usage();
      cell.driver = *d;
      have_cell = true;
      ++i;
    } else if (flag == "--bandwidth" && value != nullptr) {
      // Accepted for forward compatibility with the paper's BCC(b); the
      // genome only encodes b = 1 broadcasts today, so anything else is a
      // loud refusal, not a silently different experiment.
      const auto b = parse_unsigned(value);
      if (!b) return usage();
      if (*b != 1) {
        std::fprintf(stderr, "search: only --bandwidth 1 is implemented\n");
        return usage();
      }
      ++i;
    } else if (!flag.empty() && flag[0] != '-' && dir == nullptr) {
      dir = argv[i];
    } else {
      return usage();
    }
  }

  if (verify) {
    if (resume || dir != nullptr || have_cell) return usage();
    const GoldenStore golden = GoldenStore::from_json(read_file(golden_path));
    return verify_campaign_golden(golden_path, golden, search_campaign(golden.seed));
  }
  if (dir == nullptr) {
    std::fprintf(stderr, "search: need a checkpoint directory (positional or --dir)\n");
    return usage();
  }
  if (have_cell) {
    cell.seed = seed;
    return run_checkpointed_campaign(single_cell_search_campaign(cell), dir, resume, "search");
  }
  return run_checkpointed_campaign(search_campaign(seed), dir, resume, "search");
}

int usage();

// bccd: the serving daemon (DESIGN.md §6). SIGINT/SIGTERM trigger the drain
// sequence — finish in-flight work, flush stats, exit 0 — via the same
// sig_atomic_t flag the campaign runner polls.
int cmd_serve(int argc, char** argv) {
  ServeConfig config;
  bool have_endpoint = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--socket" && value != nullptr && *value != '\0') {
      config.unix_path = value;
      have_endpoint = true;
    } else if (flag == "--port" && value != nullptr) {
      const auto port = parse_unsigned(value);
      if (!port || *port > 65535) return usage();
      config.tcp_port = static_cast<std::uint16_t>(*port);
      have_endpoint = true;
    } else if (flag == "--threads" && value != nullptr) {
      const auto threads = parse_unsigned(value);
      if (!threads) return usage();
      config.threads = *threads;
    } else if (flag == "--queue" && value != nullptr) {
      const auto capacity = parse_size(value);
      if (!capacity || *capacity == 0) return usage();
      config.queue_capacity = *capacity;
    } else if (flag == "--cache-budget" && value != nullptr) {
      const auto budget = parse_mem_bytes(value);
      if (!budget) return usage();
      config.cache_budget_bytes = *budget;
    } else if (flag == "--max-connections" && value != nullptr) {
      const auto cap = parse_size(value);
      if (!cap || *cap == 0) return usage();
      config.max_connections = *cap;
    } else if (flag == "--store" && value != nullptr && *value != '\0') {
      config.store_dir = value;
    } else {
      return usage();
    }
    ++i;  // every flag consumed a value
  }
  if (!have_endpoint) return usage();

  // Deterministic fault injection, chaos-harness only. Strict like every
  // other env override: a malformed spec is a loud startup failure, never a
  // silently fault-free run.
  if (const auto faults = serve_fault_plan_from_env()) config.faults = *faults;

  std::signal(SIGINT, on_campaign_signal);
  std::signal(SIGTERM, on_campaign_signal);
  config.drain_flag = &g_interrupted;

  ServeServer server(std::move(config));
  server.bind();
  // Announce-and-flush so wrapper scripts can wait for readiness by reading
  // one line.
  std::printf("bccd listening on %s\n", server.endpoint().c_str());
  std::fflush(stdout);

  const ServeStats stats = server.run();
  std::printf("bccd drained: %llu admitted, %llu ok, %llu failed\n",
              static_cast<unsigned long long>(stats.requests_admitted),
              static_cast<unsigned long long>(stats.responses_ok),
              static_cast<unsigned long long>(stats.compute_failed));
  std::printf("  rejected: queue-full %llu, too-large %llu, protocol %llu, draining %llu\n",
              static_cast<unsigned long long>(stats.queue_full),
              static_cast<unsigned long long>(stats.too_large),
              static_cast<unsigned long long>(stats.protocol_violations),
              static_cast<unsigned long long>(stats.draining_rejected));
  std::printf("  cache: %llu hits, %llu misses, %llu evictions, %llu verify-failures; "
              "coalesced %llu\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.cache.evictions),
              static_cast<unsigned long long>(stats.cache.verify_failures),
              static_cast<unsigned long long>(stats.coalesced));
  if (server.disk_store() != nullptr) {
    std::printf("  disk: %llu hits, %llu misses, %llu writes, %llu write-failures, "
                "%llu quarantined\n",
                static_cast<unsigned long long>(stats.disk.hits),
                static_cast<unsigned long long>(stats.disk.misses),
                static_cast<unsigned long long>(stats.disk.writes),
                static_cast<unsigned long long>(stats.disk.write_failures),
                static_cast<unsigned long long>(stats.disk.quarantined));
  }
  if (stats.chaos_stalls != 0 || stats.chaos_corrupted_responses != 0 ||
      stats.chaos_corrupted_disk != 0) {
    std::printf("  chaos: %llu stalls, %llu corrupted responses, %llu corrupted disk entries\n",
                static_cast<unsigned long long>(stats.chaos_stalls),
                static_cast<unsigned long long>(stats.chaos_corrupted_responses),
                static_cast<unsigned long long>(stats.chaos_corrupted_disk));
  }
  return 0;
}

int cmd_loadgen(int argc, char** argv) {
  LoadgenConfig config;
  bool have_endpoint = false;
  const char* json_path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--socket" && value != nullptr && *value != '\0') {
      config.unix_path = value;
      have_endpoint = true;
    } else if (flag == "--port" && value != nullptr) {
      const auto port = parse_unsigned(value);
      if (!port || *port == 0 || *port > 65535) return usage();
      config.tcp_port = static_cast<std::uint16_t>(*port);
      have_endpoint = true;
    } else if (flag == "--requests" && value != nullptr) {
      const auto requests = parse_size(value);
      if (!requests || *requests == 0) return usage();
      config.requests = *requests;
    } else if (flag == "--concurrency" && value != nullptr) {
      const auto concurrency = parse_unsigned(value);
      if (!concurrency || *concurrency == 0) return usage();
      config.concurrency = *concurrency;
    } else if (flag == "--seed" && value != nullptr) {
      const auto seed = parse_u64(value);
      if (!seed) return usage();
      config.seed = *seed;
    } else if (flag == "--pool" && value != nullptr) {
      const auto pool = parse_size(value);
      if (!pool || *pool == 0) return usage();
      config.pool_size = *pool;
    } else if (flag == "--max-n" && value != nullptr) {
      const auto max_n = parse_unsigned(value);
      if (!max_n || *max_n < 4) return usage();
      config.max_n = *max_n;
    } else if (flag == "--stats-every" && value != nullptr) {
      const auto every = parse_size(value);
      if (!every) return usage();
      config.stats_every = *every;
    } else if (flag == "--retries" && value != nullptr) {
      const auto retries = parse_unsigned(value);
      if (!retries) return usage();
      config.max_retries = *retries;
    } else if (flag == "--deadline-ms" && value != nullptr) {
      const auto deadline = parse_u64(value);
      if (!deadline) return usage();
      config.deadline_ms = *deadline;
    } else if (flag == "--backoff-ms" && value != nullptr) {
      const auto backoff = parse_u64(value);
      if (!backoff || *backoff == 0) return usage();
      config.backoff_base_ms = *backoff;
    } else if (flag == "--zipf" && value != nullptr) {
      const auto s = parse_double(value);
      if (!s || *s < 0.0) return usage();
      config.zipf_s = *s;
    } else if (flag == "--router") {
      config.router = true;
      continue;  // no value consumed
    } else if (flag == "--json" && value != nullptr && *value != '\0') {
      json_path = value;
    } else {
      return usage();
    }
    ++i;
  }
  if (!have_endpoint) return usage();

  const LoadgenReport report = run_loadgen(config);
  const std::string json = loadgen_report_json(config, report);
  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write '%s': %s\n", json_path, std::strerror(errno));
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  } else {
    std::fwrite(json.data(), 1, json.size(), stdout);
  }

  std::fprintf(stderr, "loadgen: %zu requests in %.3f s (%.1f rps)\n", report.requests_sent,
               report.wall_seconds, report.throughput_rps);
  std::fprintf(stderr,
               "  ok %zu, errors %zu, probes %zu | cold %zu, hits %zu, coalesced %zu, "
               "disk %zu | retries %zu, reconnects %zu\n",
               report.ok, report.errors, report.stats_probes, report.cold, report.cache_hits,
               report.coalesced, report.disk_hits, report.retries, report.reconnects);
  std::fprintf(stderr, "  p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (cold p50 %.3f, warm p50 %.3f)\n",
               report.p50_ms, report.p95_ms, report.p99_ms, report.cold_p50_ms,
               report.warm_p50_ms);
  for (const auto& [name, count] : report.error_counts) {
    std::fprintf(stderr, "  error %s: %llu\n", name.c_str(),
                 static_cast<unsigned long long>(count));
  }
  if (report.digest_mismatches != 0 || report.byte_mismatches != 0) {
    // Typed rejections under load are expected; wrong bytes never are.
    std::fprintf(stderr, "loadgen: INTEGRITY FAILURE — %zu digest, %zu byte mismatches\n",
                 report.digest_mismatches, report.byte_mismatches);
    return 1;
  }
  return 0;
}

// bccr: the shard router (DESIGN.md §9). Fronts N `bcclb serve` daemons with
// rendezvous hashing, per-backend circuit breakers, failover and optional
// hedging. Drains on SIGINT/SIGTERM exactly like bccd.
int cmd_route(int argc, char** argv) {
  RouterConfig config;
  bool have_endpoint = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--socket" && value != nullptr && *value != '\0') {
      config.unix_path = value;
      have_endpoint = true;
    } else if (flag == "--port" && value != nullptr) {
      const auto port = parse_unsigned(value);
      if (!port || *port > 65535) return usage();
      config.tcp_port = static_cast<std::uint16_t>(*port);
      have_endpoint = true;
    } else if (flag == "--backend" && value != nullptr) {
      const auto endpoint = parse_backend_endpoint(value);
      if (!endpoint) return usage();
      config.backends.push_back(*endpoint);
    } else if (flag == "--fail-threshold" && value != nullptr) {
      const auto threshold = parse_unsigned(value);
      if (!threshold || *threshold == 0) return usage();
      config.health.fail_threshold = *threshold;
    } else if (flag == "--open-ms" && value != nullptr) {
      const auto ms = parse_u64(value);
      if (!ms) return usage();
      config.health.open_cooldown_ms = *ms;
    } else if (flag == "--probe-interval-ms" && value != nullptr) {
      const auto ms = parse_u64(value);
      if (!ms) return usage();
      config.health.probe_interval_ms = *ms;
    } else if (flag == "--probe-deadline-ms" && value != nullptr) {
      const auto ms = parse_u64(value);
      if (!ms || *ms == 0) return usage();
      config.health.probe_deadline_ms = *ms;
    } else if (flag == "--attempt-deadline-ms" && value != nullptr) {
      const auto ms = parse_u64(value);
      if (!ms || *ms == 0) return usage();
      config.attempt_deadline_ms = *ms;
    } else if (flag == "--hedge-ms" && value != nullptr) {
      const auto ms = parse_u64(value);
      if (!ms) return usage();
      config.hedge_delay_ms = *ms;
    } else if (flag == "--max-connections" && value != nullptr) {
      const auto cap = parse_size(value);
      if (!cap || *cap == 0) return usage();
      config.max_connections = *cap;
    } else if (flag == "--seed" && value != nullptr) {
      const auto seed = parse_u64(value);
      if (!seed) return usage();
      config.health.seed = *seed;
    } else {
      return usage();
    }
    ++i;  // every flag consumed a value
  }
  if (!have_endpoint || config.backends.empty()) return usage();

  std::signal(SIGINT, on_campaign_signal);
  std::signal(SIGTERM, on_campaign_signal);
  config.drain_flag = &g_interrupted;

  RouterServer router(std::move(config));
  router.bind();
  std::printf("bccr listening on %s across %zu backend(s)\n", router.endpoint().c_str(),
              router.pool().size());
  std::fflush(stdout);

  const RouterStats stats = router.run();
  std::printf("bccr drained: %llu routed, %llu ok, %llu error\n",
              static_cast<unsigned long long>(stats.requests_routed),
              static_cast<unsigned long long>(stats.responses_ok),
              static_cast<unsigned long long>(stats.responses_error));
  std::printf("  failovers %llu, hedges %llu (won %llu), digest-rejected %llu, no-backend %llu\n",
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.hedges_launched),
              static_cast<unsigned long long>(stats.hedges_won),
              static_cast<unsigned long long>(stats.digest_rejected),
              static_cast<unsigned long long>(stats.no_backend));
  for (std::size_t id = 0; id < stats.backends.size(); ++id) {
    const BackendSnapshot& b = stats.backends[id];
    std::printf("  backend %zu %s state=%s routed=%llu failures=%llu opened=%llu "
                "readmitted=%llu\n",
                id, b.endpoint.to_string().c_str(), backend_state_name(b.state),
                static_cast<unsigned long long>(b.counters.routed),
                static_cast<unsigned long long>(b.counters.failures),
                static_cast<unsigned long long>(b.counters.circuit_opened),
                static_cast<unsigned long long>(b.counters.circuit_closed));
  }
  return 0;
}

// One-shot health probe: a single kStats round trip, artifact to stdout.
// Works against both bccd and bccr — cluster_smoke.sh greps router stats
// (circuit states, failover counters) through this.
int cmd_probe(int argc, char** argv) {
  std::string unix_path;
  std::uint16_t tcp_port = 0;
  bool have_endpoint = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--socket" && value != nullptr && *value != '\0') {
      unix_path = value;
      have_endpoint = true;
    } else if (flag == "--port" && value != nullptr) {
      const auto port = parse_unsigned(value);
      if (!port || *port == 0 || *port > 65535) return usage();
      tcp_port = static_cast<std::uint16_t>(*port);
      have_endpoint = true;
    } else {
      return usage();
    }
    ++i;
  }
  if (!have_endpoint) return usage();

  ServeClient client = unix_path.empty() ? ServeClient::connect_tcp(tcp_port)
                                         : ServeClient::connect_unix(unix_path);
  Request request;
  request.type = RequestType::kStats;
  ClientRetryPolicy policy;
  policy.deadline_ms = 5000;
  const RetryOutcome outcome = client.request_with_retry(request, policy);
  const Response& response = require_ok(outcome.response);
  std::fwrite(response.artifact.data(), 1, response.artifact.size(), stdout);
  return 0;
}

// Million-node simulation over an implicitly defined instance: the
// InstanceView scale path. Flags override the BCCLB_SIM_* environment
// defaults; all of them go through the strict parser, so a malformed
// override is a loud failure, never a silently different experiment.
int cmd_sim(int argc, char** argv) {
  ImplicitSpec spec;
  spec.seed = 2019;
  std::optional<std::uint64_t> n;
  unsigned bandwidth = 0;  // 0 = smallest width that carries every ID
  unsigned threads = 1;
  bool implicit = false;
  bool digest = false;

  // Environment defaults (strict: set-but-malformed throws BcclbError).
  if (const auto env_n = env_u64_required_valid("BCCLB_SIM_N")) n = *env_n;
  if (const auto env_seed = env_u64_required_valid("BCCLB_SIM_SEED")) spec.seed = *env_seed;
  if (const auto env_family = env_string("BCCLB_SIM_FAMILY")) {
    const auto parsed = parse_implicit_family(*env_family);
    if (!parsed) {
      std::fprintf(stderr, "BCCLB_SIM_FAMILY=\"%.*s\" is not an implicit family\n",
                   static_cast<int>(env_family->size()), env_family->data());
      return usage();
    }
    spec.family = *parsed;
  }

  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--implicit") {
      implicit = true;
    } else if (flag == "--digest") {
      digest = true;
    } else if (flag == "--family" && value != nullptr) {
      const auto parsed = parse_implicit_family(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "unknown family '%s'; options: one-cycle two-cycle multi-cycle "
                     "random-regular\n",
                     value);
        return usage();
      }
      spec.family = *parsed;
      ++i;
    } else if (flag == "--n" && value != nullptr) {
      n = parse_u64(value);
      if (!n) return usage();
      ++i;
    } else if (flag == "--seed" && value != nullptr) {
      const auto seed = parse_u64(value);
      if (!seed) return usage();
      spec.seed = *seed;
      ++i;
    } else if (flag == "--bandwidth" && value != nullptr) {
      const auto b = parse_unsigned(value);
      if (!b || *b < 1 || *b > 64) return usage();
      bandwidth = *b;
      ++i;
    } else if (flag == "--threads" && value != nullptr) {
      const auto t = parse_unsigned(value);
      if (!t || *t == 0) return usage();
      threads = *t;
      ++i;
    } else if (flag == "--cycles" && value != nullptr) {
      const auto c = parse_unsigned(value);
      if (!c || *c == 0) return usage();
      spec.cycles = *c;
      ++i;
    } else {
      return usage();
    }
  }
  if (!implicit) {
    std::fprintf(stderr, "sim: only the --implicit path exists (explicit instances go through "
                         "the enumeration commands)\n");
    return usage();
  }
  if (!n) {
    std::fprintf(stderr, "sim: need --n (or BCCLB_SIM_N)\n");
    return usage();
  }
  spec.n = *n;

  const auto report = implicit_classify_experiment(spec, bandwidth, threads, digest);
  std::printf("sim-implicit family=%s n=%llu seed=%llu\n", implicit_family_name(spec.family),
              static_cast<unsigned long long>(spec.n),
              static_cast<unsigned long long>(spec.seed));
  std::printf("bandwidth = %u, rounds = %u\n", report.bandwidth, report.rounds_executed);
  std::printf("components found = %llu, expected = %llu\n",
              static_cast<unsigned long long>(report.components_found),
              static_cast<unsigned long long>(report.components_expected));
  std::printf("decision = %s (connectivity), correct = %s\n", report.decision ? "YES" : "NO",
              report.verdict_correct ? "yes" : "NO");
  std::printf("total bits broadcast = %llu\n",
              static_cast<unsigned long long>(report.total_bits_broadcast));
  std::printf("labels digest = %s\n", digest_hex(report.labels_digest).c_str());
  if (digest) {
    std::printf("transcript digest = %s\n", digest_hex(report.transcript_digest).c_str());
  }
  std::printf("peak state = %.1f MiB (O(n); no O(n^2) tables)\n",
              static_cast<double>(report.peak_buffer_bytes) / (1024.0 * 1024.0));
  std::printf("wall = %.3f s, %.1f rounds/sec\n",
              static_cast<double>(report.wall_time_ns) * 1e-9, report.rounds_per_sec);
  return report.verdict_correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bcclb <command> [args]\n"
               "  counts <n>\n"
               "  star   <n> <t> <adversary>\n"
               "  kt0    <n> <t> <adversary>   (6 <= n <= 9)\n"
               "  rules  <n> <t> <adversary>   (6 <= n <= 9)\n"
               "  rank   <n>\n"
               "  rank   --n N [--field gf2|modp] [--tile-rows K] [--dir D] [--resume]\n"
               "         [--threads T] [--prime P] [--mem-budget BYTES]\n"
               "  info   <n> [keep=1.0]        (n <= 10)\n"
               "  reduce <n> [seed=1]\n"
               "  upper  <n> <b> [seed=1]\n"
               "  bfs    <n> <p> [seed=1]\n"
               "  faults <n> <b> [seed=2019]\n"
               "  campaign <dir> [seed=2019]\n"
               "  campaign --resume <dir> [seed=2019]\n"
               "  campaign --verify [golden=results/golden.json]\n"
               "  search <dir> [--seed S] [--resume]\n"
               "  search --n N --rounds T [--driver random|evolution|exhaustive]\n"
               "         [--buckets K] [--budget B] [--seed S] [--bandwidth 1]\n"
               "         [--dir D] [--resume]\n"
               "  search --verify [golden=results/search_golden.json]\n"
               "  sim     --implicit [--family F] [--n N] [--seed S] [--bandwidth B]\n"
               "          [--threads N] [--cycles K] [--digest]\n"
               "  serve   (--socket <path> | --port <p>) [--threads N] [--queue N]\n"
               "          [--cache-budget <bytes>] [--max-connections N] [--store <dir>]\n"
               "  route   (--socket <path> | --port <p>) --backend (unix:<path>|tcp:<p>) ...\n"
               "          [--fail-threshold N] [--open-ms MS] [--probe-interval-ms MS]\n"
               "          [--probe-deadline-ms MS] [--attempt-deadline-ms MS] [--hedge-ms MS]\n"
               "          [--max-connections N] [--seed S]\n"
               "  probe   (--socket <path> | --port <p>)\n"
               "  loadgen (--socket <path> | --port <p>) [--requests N] [--concurrency N]\n"
               "          [--seed S] [--pool N] [--max-n N] [--stats-every N] [--json <path>]\n"
               "          [--retries N] [--deadline-ms MS] [--backoff-ms MS] [--zipf S]\n"
               "          [--router]\n"
               "  version\n"
               "adversaries: silent id-bits hashed-id coin-xor-id port-parity echo state-hash\n"
               "families: one-cycle two-cycle multi-cycle random-regular\n"
               "numeric arguments must be whole in-range numbers\n"
               "campaign, search, and rank --n honour BCCLB_THREADS and BCCLB_MEM_BUDGET\n"
               "  (bytes, K/M/G suffix);\n"
               "serve honours BCCLB_MEM_BUDGET for the artifact cache and BCCLB_SERVE_FAULTS\n"
               "  for deterministic chaos injection (see DESIGN.md §8);\n"
               "sim honours BCCLB_SIM_N, BCCLB_SIM_SEED, BCCLB_SIM_FAMILY (flags override)\n");
  return 2;
}

#ifndef BCCLB_GIT_DESCRIBE
#define BCCLB_GIT_DESCRIBE "unknown"
#endif

int dispatch(int argc, char** argv) {
  const std::string cmd = argv[1];
  if (cmd == "version" || cmd == "--version") {
    std::printf("bcclb %s\n", BCCLB_GIT_DESCRIBE);
    return 0;
  }
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "route") return cmd_route(argc, argv);
  if (cmd == "probe") return cmd_probe(argc, argv);
  if (cmd == "loadgen") return cmd_loadgen(argc, argv);
  if (cmd == "sim") return cmd_sim(argc, argv);
  if (cmd == "counts" && argc >= 3) {
    const auto n = parse_size(argv[2]);
    if (!n) return usage();
    return cmd_counts(*n);
  }
  if ((cmd == "star" || cmd == "kt0" || cmd == "rules") && argc >= 5) {
    const auto n = parse_size(argv[2]);
    const auto t = parse_unsigned(argv[3]);
    if (!n || !t) return usage();
    const auto kind = parse_adversary(argv[4]);
    if (!kind) return usage();
    if (cmd == "star") return cmd_star(*n, *t, *kind);
    if (cmd == "kt0") return cmd_kt0(*n, *t, *kind);
    return cmd_rules(*n, *t, *kind);
  }
  if (cmd == "rank" && argc >= 3) {
    // Flag form (`rank --n 9 …`) is the out-of-core tiled elimination;
    // positional form (`rank 7`) keeps the legacy dense summary.
    if (argv[2][0] == '-') return cmd_rank_tiled(argc, argv);
    const auto n = parse_size(argv[2]);
    if (!n) return usage();
    return cmd_rank(*n);
  }
  if (cmd == "info" && argc >= 3) {
    const auto n = parse_size(argv[2]);
    const auto keep = argc >= 4 ? parse_double(argv[3]) : std::optional<double>(1.0);
    if (!n || !keep) return usage();
    return cmd_info(*n, *keep);
  }
  if (cmd == "reduce" && argc >= 3) {
    const auto n = parse_size(argv[2]);
    const auto seed = argc >= 4 ? parse_u64(argv[3]) : std::optional<std::uint64_t>(1);
    if (!n || !seed) return usage();
    return cmd_reduce(*n, *seed);
  }
  if (cmd == "upper" && argc >= 4) {
    const auto n = parse_size(argv[2]);
    const auto b = parse_unsigned(argv[3]);
    const auto seed = argc >= 5 ? parse_u64(argv[4]) : std::optional<std::uint64_t>(1);
    if (!n || !b || !seed) return usage();
    return cmd_upper(*n, *b, *seed);
  }
  if (cmd == "bfs" && argc >= 4) {
    const auto n = parse_size(argv[2]);
    const auto p = parse_double(argv[3]);
    const auto seed = argc >= 5 ? parse_u64(argv[4]) : std::optional<std::uint64_t>(1);
    if (!n || !p || !seed) return usage();
    return cmd_bfs(*n, *p, *seed);
  }
  if (cmd == "campaign" && argc >= 3) {
    const std::string arg = argv[2];
    if (arg == "--verify") {
      return cmd_campaign_verify(argc >= 4 ? argv[3] : "results/golden.json");
    }
    if (arg == "--resume") {
      if (argc < 4) return usage();
      const auto seed = argc >= 5 ? parse_u64(argv[4]) : std::optional<std::uint64_t>(2019);
      if (!seed) return usage();
      return cmd_campaign_run(argv[3], *seed, /*resume=*/true);
    }
    if (arg.empty() || arg[0] == '-') return usage();
    const auto seed = argc >= 4 ? parse_u64(argv[3]) : std::optional<std::uint64_t>(2019);
    if (!seed) return usage();
    return cmd_campaign_run(argv[2], *seed, /*resume=*/false);
  }
  if (cmd == "search") return cmd_search(argc, argv);
  if (cmd == "faults" && argc >= 4) {
    const auto n = parse_size(argv[2]);
    const auto b = parse_unsigned(argv[3]);
    const auto seed = argc >= 5 ? parse_u64(argv[4]) : std::optional<std::uint64_t>(2019);
    if (!n || !b || !seed) return usage();
    return cmd_faults(*n, *b, *seed);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    return dispatch(argc, argv);
  } catch (const BcclbError& e) {
    std::fprintf(stderr, "error (%s): %s\n", e.kind(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
