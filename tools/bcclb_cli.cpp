// bcclb — command-line front end to the laboratory's engines.
//
// Subcommands (run `bcclb help` for the synopsis):
//   counts <n>                 instance-space sizes and the Lemma 3.9 ratio
//   star <n> <t> <adversary>   Theorem 3.5 star-distribution experiment
//   kt0 <n> <t> <adversary>    Theorem 3.1 matching experiment (n <= 9)
//   rules <n> <t> <adversary>  E17 decision-rule optimization (n <= 9)
//   rank <n>                   Theorem 2.3 / Lemma 4.1 join-matrix ranks
//   rank --n N …               out-of-core tiled rank certificate of M_n
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
//   help                       the synopsis, on stdout
//   version                    git describe baked in at configure time
//
// Parsing. Each positional command has an argument-count range in
// kPositional. Each flag command (rank --n, search, sim, serve, route,
// probe, loadgen) describes its flags in one table, the std::vector<Flag>
// that its <cmd>_flags() builds: the flag, its usage placeholder, a setter
// that parses into the target field and checks the bounds, the arity
// (value, switch, optional value, repeated) and whether the flag is
// required. parse_flags() walks argv against the table and usage() renders
// the same table, so the parser and the help text cannot drift apart.
// Rules that span several flags (--resume needs --dir, --verify excludes
// the cell flags) are plain code after the parse.
//
// Numbers are plain decimal digits: parse_env_u64 (common/env.h) refuses
// signs, spaces and overflow, and the row's bounds narrow the value to its
// field's type. Byte sizes go through parse_mem_bytes; doubles must be
// finite. A malformed command line throws UsageError, which main turns into
// the reason, the usage text and exit 2. Errors out of the library surface
// as typed BcclbError with kind + context (exit 1); anything else is a
// plain std::exception. No helper calls std::exit — all exits flow through
// main.
//
// SIGINT/SIGTERM during a campaign set a sig_atomic_t flag the runner polls
// between job batches: the run flushes a final checkpoint, prints the resume
// command, and exits 130 instead of dying dirty.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bcc_lb.h"
#include "common/mathutil.h"

using namespace bcclb;

namespace {

// A malformed command line. main prints the reason (when there is one), the
// usage text, and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int usage(std::FILE* out = stderr);

// A whole decimal number no larger than `hi`, through the strict
// parse_env_u64 (digits only: no sign, no spaces, no overflow).
std::optional<std::uint64_t> parse_uint(const char* s, std::uint64_t hi) {
  const auto value = parse_env_u64(s);
  if (!value || *value > hi) return std::nullopt;
  return value;
}

// A whole-string finite double ("nan" and "inf" are refused).
std::optional<double> parse_double(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(value)) return std::nullopt;
  return value;
}

// ---- Flag tables -----------------------------------------------------------

// What a flag takes after its name.
enum class Arity {
  kValue,          // exactly one value
  kSwitch,         // nothing
  kOptionalValue,  // the next argument, unless it starts with '-'
  kRepeated,       // one value, and the flag may be given again
};

// Whether a flag must be given. The kOneOf rows of a table form one group
// of which at least one must appear (--socket | --port).
enum class Need { kOptional, kRequired, kOneOf };

struct Flag {
  const char* name;
  const char* meta;  // the value's placeholder in the usage text
  // Parses the value (nullptr for a switch or an absent optional value) into
  // the target field; false when it is malformed or out of bounds.
  std::function<bool(const char*)> set;
  Arity arity = Arity::kValue;
  Need need = Need::kOptional;
};

// An integer flag bounded to [lo, hi]; hi defaults to the target's range.
template <class T>
Flag uint_flag(const char* name, const char* meta, T& target, std::uint64_t lo = 0,
               std::uint64_t hi = std::numeric_limits<T>::max()) {
  return {name, meta, [&target, lo, hi](const char* text) {
            const auto value = parse_uint(text, hi);
            if (!value || *value < lo) return false;
            target = static_cast<T>(*value);
            return true;
          }};
}

// A flag whose value goes through `parse` (an enum or byte-size parser).
template <class T, class Parse>
Flag parsed_flag(const char* name, const char* meta, T& target, Parse parse) {
  return {name, meta, [&target, parse](const char* text) {
            const auto value = parse(text);
            if (value) target = *value;
            return value.has_value();
          }};
}

// A non-empty string flag (a path); T is std::string or const char*.
template <class T>
Flag text_flag(const char* name, const char* meta, T& target) {
  return {name, meta, [&target](const char* text) {
            if (*text == '\0') return false;
            target = text;
            return true;
          }};
}

Flag switch_flag(const char* name, bool& target) {
  return {name, nullptr,
          [&target](const char*) {
            target = true;
            return true;
          },
          Arity::kSwitch};
}

Flag required(Flag row) {
  row.need = Need::kRequired;
  return row;
}

Flag one_of(Flag row) {
  row.need = Need::kOneOf;
  return row;
}

// `row`, also recording in `seen` that it was given.
Flag noting(Flag row, bool& seen) {
  row.set = [set = std::move(row.set), &seen](const char* text) {
    seen = true;
    return set(text);
  };
  return row;
}

// Walks argv[2..] against `rows`. `positional`, when given, takes the one
// argument that names no flag. Throws UsageError naming the first problem:
// an unknown argument, a missing or malformed value, a missing required
// flag, or no flag of the kOneOf group.
void parse_flags(const char* cmd, const std::vector<Flag>& rows, int argc, char** argv,
                 const char** positional = nullptr) {
  const std::string where = std::string("bcclb ") + cmd + ": ";
  std::vector<bool> given(rows.size(), false);
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    const auto row = std::find_if(rows.begin(), rows.end(),
                                  [arg](const Flag& f) { return std::strcmp(f.name, arg) == 0; });
    if (row == rows.end()) {
      if (positional != nullptr && *positional == nullptr && arg[0] != '-' && arg[0] != '\0') {
        *positional = arg;
        continue;
      }
      throw UsageError(where + "unexpected argument '" + arg + "'");
    }
    given[static_cast<std::size_t>(row - rows.begin())] = true;
    const char* value = nullptr;
    if (row->arity == Arity::kOptionalValue) {
      if (i + 1 < argc && argv[i + 1][0] != '-') value = argv[++i];
    } else if (row->arity != Arity::kSwitch) {
      if (i + 1 == argc) throw UsageError(where + row->name + " needs a value");
      value = argv[++i];
    }
    if (!row->set(value)) {
      throw UsageError(where + "bad value '" + value + "' for " + row->name + " " + row->meta);
    }
  }
  std::string group;
  bool group_given = false;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].need == Need::kRequired && !given[r]) {
      throw UsageError(where + "missing " + rows[r].name);
    }
    if (rows[r].need == Need::kOneOf) {
      group += std::string(" ") + rows[r].name;
      group_given = group_given || given[r];
    }
  }
  if (!group.empty() && !group_given) throw UsageError(where + "needs one of" + group);
}

// The usage lines of one flag table: the command, then `lead` and each row
// in table order (optional rows bracketed, the kOneOf group as "(a | b)"),
// wrapped at 80 columns under a 10-column command field.
template <class Args>
std::string synopsis(const char* cmd, std::vector<Flag> (*table)(Args&),
                     const char* lead = nullptr) {
  Args unused;
  std::vector<std::string> words;
  if (lead != nullptr) words.emplace_back(lead);
  std::string group;
  for (const Flag& row : table(unused)) {
    std::string word = row.name;
    if (row.arity == Arity::kOptionalValue) {
      word += std::string(" [") + row.meta + "]";
    } else if (row.arity != Arity::kSwitch) {
      word += std::string(" ") + row.meta;
    }
    if (row.arity == Arity::kRepeated) word += " ...";
    if (row.need == Need::kOneOf) {
      group += (group.empty() ? "(" : " | ") + word;
      continue;
    }
    if (!group.empty()) words.push_back(std::exchange(group, "") + ")");
    words.push_back(row.need == Need::kRequired ? word : "[" + word + "]");
  }
  if (!group.empty()) words.push_back(group + ")");

  constexpr std::size_t kIndent = 10, kWidth = 80;
  std::string out = "  " + std::string(cmd);
  out.resize(kIndent, ' ');
  std::size_t column = kIndent;
  for (const std::string& word : words) {
    if (column > kIndent && column + 1 + word.size() > kWidth) {
      out += '\n';
      out.append(kIndent, ' ');
      column = kIndent;
    } else if (column > kIndent) {
      out += ' ';
      ++column;
    }
    out += word;
    column += word.size();
  }
  return out + "\n";
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

// Set by the SIGINT/SIGTERM handler, polled by CampaignRunner between job
// batches and by the tiled rank engine between tiles. sig_atomic_t is the
// only type async-signal-safe to write from a handler; everything else
// (checkpoint flush, messaging) happens on the main thread once the runner
// notices the flag.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void on_campaign_signal(int) { g_interrupted = 1; }

std::vector<Flag> rank_flags(TiledRankConfig& c) {
  return {required(uint_flag("--n", "N", c.n)),
          parsed_flag("--field", "gf2|modp", c.field, parse_rank_field),
          uint_flag("--tile-rows", "K", c.tile_rows, 1),
          text_flag("--dir", "D", c.dir),
          switch_flag("--resume", c.resume),
          uint_flag("--threads", "T", c.threads),
          uint_flag("--prime", "P", c.prime),
          parsed_flag("--mem-budget", "BYTES", c.mem_budget_bytes, parse_mem_bytes)};
}

// Flag-based `rank --n N …`: the out-of-core tiled elimination
// (linalg/tiled_rank.h). Streams M_n tile by tile, checkpoints into --dir,
// and prints/writes a rank certificate whose digest is bit-identical across
// thread counts and across SIGKILL + --resume.
int cmd_rank_tiled(int argc, char** argv) {
  TiledRankConfig config;
  parse_flags("rank", rank_flags(config), argc, argv);
  if (config.resume && config.dir.empty()) {
    throw UsageError("rank --resume needs --dir <dir> (the checkpoint lives there)");
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
  if (const auto v = env_u64("BCCLB_RANK_STOP_AFTER")) config.stop_after_tiles = *v;
  if (const auto v = env_u64("BCCLB_RANK_TILE_DELAY_MS")) {
    config.inter_tile_delay_ns = *v * 1'000'000ULL;
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
  const auto stop_after = env_u64("BCCLB_CAMPAIGN_STOP_AFTER");
  if (stop_after && *stop_after <= std::numeric_limits<unsigned>::max()) {
    config.stop_after_batches = static_cast<unsigned>(*stop_after);
  }
  if (const auto v = env_u64("BCCLB_CAMPAIGN_BATCH_DELAY_MS")) {
    config.inter_batch_delay_ns = *v * 1'000'000ULL;
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

struct SearchArgs {
  const char* dir = nullptr;  // positional or --dir
  bool resume = false;
  bool verify = false;
  const char* golden = "results/search_golden.json";
  SearchConfig cell;       // --seed also seeds the standard campaign
  bool have_cell = false;  // a cell flag was given: run that one cell
};

std::vector<Flag> search_flags(SearchArgs& a) {
  const auto cell = [&a](Flag row) { return noting(std::move(row), a.have_cell); };
  return {text_flag("--dir", "D", a.dir),
          switch_flag("--resume", a.resume),
          uint_flag("--seed", "S", a.cell.seed),
          {"--verify", "golden",
           [&a](const char* path) {
             a.verify = true;
             if (path != nullptr) a.golden = path;
             return true;
           },
           Arity::kOptionalValue},
          cell(uint_flag("--n", "N", a.cell.n)),
          cell(uint_flag("--rounds", "T", a.cell.rounds, 1)),
          cell(parsed_flag("--driver", "random|evolution|exhaustive", a.cell.driver,
                           parse_search_driver)),
          cell(uint_flag("--buckets", "K", a.cell.buckets, 1, 64)),
          cell(uint_flag("--budget", "B", a.cell.budget)),
          // Accepted for forward compatibility with the paper's BCC(b); the
          // genome only encodes b = 1 broadcasts today, so anything else is
          // a loud refusal, not a silently different experiment.
          uint_flag("--bandwidth", "1", a.cell.bandwidth, 1, 1)};
}

// The adversary strategy hunt (DESIGN.md §11). The default form runs the
// standard search campaign through the checkpointed CampaignRunner into
// <dir> — kill it (even -9) and `bcclb search --resume <dir>` finishes the
// remaining cells bit-identically. Cell flags (--n/--rounds/…) run one
// ad-hoc cell the same way; --verify re-runs the standard campaign in
// memory and diffs digests against the checked-in golden store.
int cmd_search(int argc, char** argv) {
  SearchArgs args;
  parse_flags("search", search_flags(args), argc, argv, &args.dir);
  if (args.verify) {
    if (args.resume || args.dir != nullptr || args.have_cell) {
      throw UsageError("search --verify takes no <dir>, --resume or cell flags");
    }
    const GoldenStore golden = GoldenStore::from_json(read_file(args.golden));
    return verify_campaign_golden(args.golden, golden, search_campaign(golden.seed));
  }
  if (args.dir == nullptr) {
    throw UsageError("search: need a checkpoint directory (positional or --dir)");
  }
  const Campaign campaign = args.have_cell ? single_cell_search_campaign(args.cell)
                                           : search_campaign(args.cell.seed);
  return run_checkpointed_campaign(campaign, args.dir, args.resume, "search");
}

std::vector<Flag> serve_flags(ServeConfig& c) {
  return {one_of(text_flag("--socket", "<path>", c.unix_path)),
          one_of(uint_flag("--port", "<p>", c.tcp_port)),
          uint_flag("--threads", "N", c.threads),
          uint_flag("--queue", "N", c.queue_capacity, 1),
          parsed_flag("--cache-budget", "<bytes>", c.cache_budget_bytes, parse_mem_bytes),
          uint_flag("--max-connections", "N", c.max_connections, 1),
          text_flag("--store", "<dir>", c.store_dir)};
}

// bccd: the serving daemon (DESIGN.md §6). SIGINT/SIGTERM trigger the drain
// sequence — finish in-flight work, flush stats, exit 0 — via the same
// sig_atomic_t flag the campaign runner polls.
int cmd_serve(int argc, char** argv) {
  ServeConfig config;
  parse_flags("serve", serve_flags(config), argc, argv);

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

  server.run();
  std::printf("bccd drained\n%s", server.render_stats().c_str());
  return 0;
}

struct LoadgenArgs {
  LoadgenConfig config;
  const char* json_path = nullptr;  // report to stdout when unset
};

std::vector<Flag> loadgen_flags(LoadgenArgs& a) {
  LoadgenConfig& c = a.config;
  return {one_of(text_flag("--socket", "<path>", c.unix_path)),
          one_of(uint_flag("--port", "<p>", c.tcp_port, 1)),
          uint_flag("--requests", "N", c.requests, 1),
          uint_flag("--concurrency", "N", c.concurrency, 1),
          uint_flag("--seed", "S", c.seed),
          uint_flag("--pool", "N", c.pool_size, 1),
          uint_flag("--max-n", "N", c.max_n, 4),
          uint_flag("--stats-every", "N", c.stats_every),
          text_flag("--json", "<path>", a.json_path),
          uint_flag("--retries", "N", c.max_retries),
          uint_flag("--deadline-ms", "MS", c.deadline_ms),
          uint_flag("--backoff-ms", "MS", c.backoff_base_ms, 1),
          {"--zipf", "S",
           [&c](const char* text) {
             const auto s = parse_double(text);
             if (!s || *s < 0.0) return false;
             c.zipf_s = *s;
             return true;
           }},
          switch_flag("--router", c.router)};
}

int cmd_loadgen(int argc, char** argv) {
  LoadgenArgs args;
  parse_flags("loadgen", loadgen_flags(args), argc, argv);
  const LoadgenConfig& config = args.config;

  const LoadgenReport report = run_loadgen(config);
  const std::string json = loadgen_report_json(config, report);
  if (args.json_path != nullptr) {
    std::FILE* f = std::fopen(args.json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write '%s': %s\n", args.json_path,
                   std::strerror(errno));
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

std::vector<Flag> route_flags(RouterConfig& c) {
  return {one_of(text_flag("--socket", "<path>", c.unix_path)),
          one_of(uint_flag("--port", "<p>", c.tcp_port)),
          {"--backend", "(unix:<path>|tcp:<p>)",
           [&c](const char* text) {
             const auto endpoint = parse_backend_endpoint(text);
             if (endpoint) c.backends.push_back(*endpoint);
             return endpoint.has_value();
           },
           Arity::kRepeated, Need::kRequired},
          uint_flag("--fail-threshold", "N", c.health.fail_threshold, 1),
          uint_flag("--open-ms", "MS", c.health.open_cooldown_ms),
          uint_flag("--probe-interval-ms", "MS", c.health.probe_interval_ms),
          uint_flag("--probe-deadline-ms", "MS", c.health.probe_deadline_ms, 1),
          uint_flag("--attempt-deadline-ms", "MS", c.attempt_deadline_ms, 1),
          uint_flag("--hedge-ms", "MS", c.hedge_delay_ms),
          uint_flag("--max-connections", "N", c.max_connections, 1),
          uint_flag("--seed", "S", c.health.seed)};
}

// bccr: the shard router (DESIGN.md §9). Fronts N `bcclb serve` daemons with
// rendezvous hashing, per-backend circuit breakers, failover and optional
// hedging. Drains on SIGINT/SIGTERM exactly like bccd.
int cmd_route(int argc, char** argv) {
  RouterConfig config;
  parse_flags("route", route_flags(config), argc, argv);

  std::signal(SIGINT, on_campaign_signal);
  std::signal(SIGTERM, on_campaign_signal);
  config.drain_flag = &g_interrupted;

  RouterServer router(std::move(config));
  router.bind();
  std::printf("bccr listening on %s across %zu backend(s)\n", router.endpoint().c_str(),
              router.pool().size());
  std::fflush(stdout);

  router.run();
  std::printf("bccr drained\n%s", router.render_stats().c_str());
  return 0;
}

struct Endpoint {
  std::string unix_path;
  std::uint16_t tcp_port = 0;
};

std::vector<Flag> probe_flags(Endpoint& e) {
  return {one_of(text_flag("--socket", "<path>", e.unix_path)),
          one_of(uint_flag("--port", "<p>", e.tcp_port, 1))};
}

// One-shot health probe: a single kStats round trip, artifact to stdout.
// Works against both bccd and bccr — cluster_smoke.sh greps router stats
// (circuit states, failover counters) through this.
int cmd_probe(int argc, char** argv) {
  Endpoint endpoint;
  parse_flags("probe", probe_flags(endpoint), argc, argv);

  ServeClient client = endpoint.unix_path.empty() ? ServeClient::connect_tcp(endpoint.tcp_port)
                                         : ServeClient::connect_unix(endpoint.unix_path);
  Request request;
  request.type = RequestType::kStats;
  ClientRetryPolicy policy;
  policy.deadline_ms = 5000;
  const RetryOutcome outcome = client.request_with_retry(request, policy);
  const Response& response = require_ok(outcome.response);
  std::fwrite(response.artifact.data(), 1, response.artifact.size(), stdout);
  return 0;
}

struct SimArgs {
  ImplicitSpec spec;
  bool have_n = false;  // --n or BCCLB_SIM_N
  unsigned bandwidth = 0;  // 0 = smallest width that carries every ID
  unsigned threads = 1;
  bool implicit = false;  // required: the only sim path there is
  bool digest = false;
};

std::vector<Flag> sim_flags(SimArgs& a) {
  return {required(switch_flag("--implicit", a.implicit)),
          parsed_flag("--family", "F", a.spec.family, parse_implicit_family),
          noting(uint_flag("--n", "N", a.spec.n), a.have_n),
          uint_flag("--seed", "S", a.spec.seed),
          uint_flag("--bandwidth", "B", a.bandwidth, 1, 64),
          uint_flag("--threads", "N", a.threads, 1),
          uint_flag("--cycles", "K", a.spec.cycles, 1),
          switch_flag("--digest", a.digest)};
}

// Million-node simulation over an implicitly defined instance: the
// InstanceView scale path. Flags override the BCCLB_SIM_* environment
// defaults; all of them go through the strict parser, so a malformed
// override is a loud failure, never a silently different experiment.
int cmd_sim(int argc, char** argv) {
  SimArgs args;
  ImplicitSpec& spec = args.spec;
  spec.seed = 2019;

  // Environment defaults (strict: set-but-malformed throws BcclbError).
  if (const auto env_n = env_u64_required_valid("BCCLB_SIM_N")) {
    spec.n = *env_n;
    args.have_n = true;
  }
  if (const auto env_seed = env_u64_required_valid("BCCLB_SIM_SEED")) spec.seed = *env_seed;
  if (const auto env_family = env_string("BCCLB_SIM_FAMILY")) {
    const auto parsed = parse_implicit_family(*env_family);
    if (!parsed) {
      throw UsageError("BCCLB_SIM_FAMILY=\"" + std::string(*env_family) +
                       "\" is not an implicit family");
    }
    spec.family = *parsed;
  }

  parse_flags("sim", sim_flags(args), argc, argv);
  if (!args.have_n) throw UsageError("sim: need --n (or BCCLB_SIM_N)");

  const auto report =
      implicit_classify_experiment(spec, args.bandwidth, args.threads, args.digest);
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
  if (args.digest) {
    std::printf("transcript digest = %s\n", digest_hex(report.transcript_digest).c_str());
  }
  std::printf("peak state = %.1f MiB (O(n); no O(n^2) tables)\n",
              static_cast<double>(report.peak_buffer_bytes) / (1024.0 * 1024.0));
  std::printf("wall = %.3f s, %.1f rounds/sec\n",
              static_cast<double>(report.wall_time_ns) * 1e-9, report.rounds_per_sec);
  return report.verdict_correct ? 0 : 1;
}

int usage(std::FILE* out) {
  const std::string text =
      "usage: bcclb <command> [args]\n"
      "  counts <n>\n"
      "  star   <n> <t> <adversary>\n"
      "  kt0    <n> <t> <adversary>   (6 <= n <= 9)\n"
      "  rules  <n> <t> <adversary>   (6 <= n <= 9)\n"
      "  rank   <n>\n" +
      synopsis("rank", rank_flags) +
      "  info   <n> [keep=1.0]        (n <= 10)\n"
      "  reduce <n> [seed=1]\n"
      "  upper  <n> <b> [seed=1]\n"
      "  bfs    <n> <p> [seed=1]\n"
      "  faults <n> <b> [seed=2019]\n"
      "  campaign <dir> [seed=2019]\n"
      "  campaign --resume <dir> [seed=2019]\n"
      "  campaign --verify [golden=results/golden.json]\n" +
      synopsis("search", search_flags, "[<dir>]") + synopsis("sim", sim_flags) +
      synopsis("serve", serve_flags) + synopsis("route", route_flags) +
      synopsis("probe", probe_flags) + synopsis("loadgen", loadgen_flags) +
      "  help\n"
      "  version\n"
      "adversaries: silent id-bits hashed-id coin-xor-id port-parity echo state-hash\n"
      "families: one-cycle two-cycle multi-cycle random-regular\n"
      "numbers are plain decimal digits (no sign, no spaces) and must be in range\n"
      "search: cell flags (--n --rounds --driver --buckets --budget) run one cell;\n"
      "  --verify (golden=results/search_golden.json) takes no <dir>, --resume or cell flags\n"
      "campaign, search, and rank --n honour BCCLB_THREADS and BCCLB_MEM_BUDGET\n"
      "  (bytes, K/M/G suffix);\n"
      "serve honours BCCLB_MEM_BUDGET for the artifact cache and BCCLB_SERVE_FAULTS\n"
      "  for deterministic chaos injection (see DESIGN.md §8);\n"
      "sim honours BCCLB_SIM_N, BCCLB_SIM_SEED, BCCLB_SIM_FAMILY (flags override)\n";
  std::fputs(text.c_str(), out);
  return out == stdout ? 0 : 2;
}

#ifndef BCCLB_GIT_DESCRIBE
#define BCCLB_GIT_DESCRIBE "unknown"
#endif

// The positional commands and how many arguments each takes.
struct PositionalCommand {
  const char* name;
  int min_args, max_args;
};
constexpr PositionalCommand kPositional[] = {
    {"counts", 1, 1}, {"star", 3, 3},   {"kt0", 3, 3},   {"rules", 3, 3},
    {"rank", 1, 1},   {"info", 1, 2},   {"reduce", 1, 2}, {"upper", 2, 3},
    {"bfs", 2, 3},    {"faults", 2, 3}, {"campaign", 1, 3}};

int dispatch(int argc, char** argv) {
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") return usage(stdout);
  if (cmd == "version" || cmd == "--version") {
    std::printf("bcclb %s\n", BCCLB_GIT_DESCRIBE);
    return 0;
  }
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "route") return cmd_route(argc, argv);
  if (cmd == "probe") return cmd_probe(argc, argv);
  if (cmd == "loadgen") return cmd_loadgen(argc, argv);
  if (cmd == "sim") return cmd_sim(argc, argv);
  if (cmd == "search") return cmd_search(argc, argv);
  // Flag form (`rank --n 9 …`) is the out-of-core tiled elimination;
  // positional form (`rank 7`) keeps the legacy dense summary.
  if (cmd == "rank" && argc >= 3 && argv[2][0] == '-') return cmd_rank_tiled(argc, argv);

  const auto* spec = std::find_if(std::begin(kPositional), std::end(kPositional),
                                  [&cmd](const PositionalCommand& p) { return cmd == p.name; });
  if (spec == std::end(kPositional)) throw UsageError("unknown command '" + cmd + "'");
  const int count = argc - 2;
  if (count < spec->min_args || count > spec->max_args) {
    throw UsageError(cmd + " takes " + std::to_string(spec->min_args) + " to " +
                     std::to_string(spec->max_args) + " arguments, not " + std::to_string(count));
  }
  const auto number = [argv](int i, std::uint64_t hi) {
    const auto value = parse_uint(argv[i], hi);
    if (!value) throw UsageError(std::string("bad number '") + argv[i] + "'");
    return *value;
  };
  const auto real = [argv](int i) {
    const auto value = parse_double(argv[i]);
    if (!value) throw UsageError(std::string("bad number '") + argv[i] + "'");
    return *value;
  };
  const auto seed_or = [&](int i, std::uint64_t fallback) {
    return i < argc ? number(i, std::numeric_limits<std::uint64_t>::max()) : fallback;
  };
  constexpr std::uint64_t kSize = std::numeric_limits<std::size_t>::max();
  constexpr std::uint64_t kUnsigned = std::numeric_limits<unsigned>::max();

  if (cmd == "counts") return cmd_counts(number(2, kSize));
  if (cmd == "star" || cmd == "kt0" || cmd == "rules") {
    const std::size_t n = number(2, kSize);
    const auto t = static_cast<unsigned>(number(3, kUnsigned));
    const auto kind = parse_adversary(argv[4]);
    if (!kind) throw UsageError("");
    if (cmd == "star") return cmd_star(n, t, *kind);
    if (cmd == "kt0") return cmd_kt0(n, t, *kind);
    return cmd_rules(n, t, *kind);
  }
  if (cmd == "rank") return cmd_rank(number(2, kSize));
  if (cmd == "info") return cmd_info(number(2, kSize), count == 2 ? real(3) : 1.0);
  if (cmd == "reduce") return cmd_reduce(number(2, kSize), seed_or(3, 1));
  if (cmd == "upper") {
    const std::size_t n = number(2, kSize);
    return cmd_upper(n, static_cast<unsigned>(number(3, kUnsigned)), seed_or(4, 1));
  }
  if (cmd == "bfs") {
    const std::size_t n = number(2, kSize);
    return cmd_bfs(n, real(3), seed_or(4, 1));
  }
  if (cmd == "faults") {
    const std::size_t n = number(2, kSize);
    return cmd_faults(n, static_cast<unsigned>(number(3, kUnsigned)), seed_or(4, 2019));
  }
  // campaign <dir> [seed] | --resume <dir> [seed] | --verify [golden]
  const std::string first = argv[2];
  if (first == "--verify") {
    if (count > 2) throw UsageError("campaign --verify takes at most one golden path");
    return cmd_campaign_verify(count == 2 ? argv[3] : "results/golden.json");
  }
  const bool resume = first == "--resume";
  const int dir = resume ? 3 : 2;
  if (dir >= argc || argc > dir + 2 || (!resume && (first.empty() || first[0] == '-'))) {
    throw UsageError("campaign takes [--resume] <dir> [seed] or --verify [golden]");
  }
  return cmd_campaign_run(argv[dir], seed_or(dir + 1, 2019), resume);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    return dispatch(argc, argv);
  } catch (const UsageError& e) {
    if (*e.what() != '\0') std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const BcclbError& e) {
    std::fprintf(stderr, "error (%s): %s\n", e.kind(), e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
