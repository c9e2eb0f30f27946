// The fitness oracle: exact distributional error of a strategy under µ.
//
// A candidate's fitness is its error under the hard distribution of
// Theorem 3.1 — mass 1/2 uniform on the one-cycle structures V1, 1/2
// uniform on the two-cycle structures V2 — measured by running the strategy
// on *every* canonical instance. The oracle runs the table's state machine
// (search/strategy.h) over flat arrays: a vertex's start state does not
// depend on the table, so it is recorded once per instance, and every
// canonical instance shares the Wiring::kt1(n) port→peer table. The tally
// is kept as an exact integer: scaling by 2·|V1|·|V2| turns µ1 = 1/(2|V1|)
// into weight |V2| per one-cycle miss and µ2 into weight |V1| per two-cycle
// miss, so fitness comparisons (and therefore every search decision) are
// integer comparisons, free of floating-point tie hazards, and bit-identical
// at any BCCLB_THREADS.
//
// The oracle also owns the anomaly policy (DESIGN.md §11): a new best
// candidate is checked against its own Theorem 3.1 matching certificate
// (kt0_matching_experiment). |M| crossed pairs must each absorb min(µ1, µ2)
// error, so scaled error < |M|·min(|V1|, |V2|) is mathematically impossible
// — such a score is replayed through the RoundEngine (strategy_factory on
// freshly built canonical instances, the second execution path) and thrown
// as VerifierAnomalyError either way: a verifier bug, not a discovery.
#pragma once

#include <cstdint>
#include <vector>

#include "bcc/batch_runner.h"
#include "search/strategy.h"

namespace bcclb {

// Scaled-integer error. Denominator 2·|V1|·|V2| is fixed per (n), so two
// results for the same oracle compare by err_scaled alone. For n <= 9 the
// scaled values fit comfortably in u64 (|V1|·|V2| < 2^35).
struct FitnessResult {
  std::uint64_t err_scaled = 0;  // wrong_yes·|V2| + wrong_no·|V1|
  std::uint64_t denom = 1;       // 2·|V1|·|V2|
  std::uint32_t wrong_yes = 0;   // one-cycle instances answered NO
  std::uint32_t wrong_no = 0;    // two-cycle instances answered YES

  double error() const { return static_cast<double>(err_scaled) / static_cast<double>(denom); }

  friend bool operator==(const FitnessResult&, const FitnessResult&) = default;
};

class FitnessOracle {
 public:
  // Enumerates the canonical instances once and records every vertex's
  // start state; 6 <= n <= 9 (the exhaustive range the decision optimizer
  // supports).
  FitnessOracle(std::size_t n, unsigned rounds);

  std::size_t n() const { return n_; }
  unsigned rounds() const { return rounds_; }
  std::size_t v1_count() const { return v1_count_; }
  std::size_t v2_count() const { return v2_count_; }
  std::size_t num_instances() const { return v1_count_ + v2_count_; }
  std::uint64_t denom() const { return denom_; }

  // Runs the strategy on every instance over the flat start-state table, in
  // contiguous blocks of instances on up to runner.num_threads() workers
  // (n = 7 is too small to be worth a thread and runs inline), with a serial
  // tally in instance order. Pure in the table: the result is bit-identical
  // across thread counts.
  FitnessResult evaluate(const StrategyTable& table, const BatchRunner& runner) const;

  // The same score from the second execution path: strategy_factory(table)
  // through one RoundEngine, serially, on freshly built canonical instances.
  FitnessResult engine_replay(const StrategyTable& table) const;

  // The candidate's own certified floor, scaled to denom(): builds the
  // Theorem 3.1 indistinguishability graph for the strategy's transcripts
  // and returns max_matching · min(|V1|, |V2|). Any valid evaluation
  // satisfies err_scaled >= this value.
  std::uint64_t certificate_floor_scaled(const StrategyTable& table) const;

  // The anomaly policy: if `score.err_scaled` < the candidate's certificate
  // floor, replays the table through the RoundEngine (engine_replay) and
  // throws VerifierAnomalyError whether the impossible score reproduces or
  // the replay disagrees with it — either way the toolchain, not the
  // candidate, is broken. Returns the certificate floor it checked against,
  // for reporting.
  std::uint64_t check_candidate(const StrategyTable& table, const FitnessResult& score) const;

 private:
  std::size_t n_;
  unsigned rounds_;
  std::size_t v1_count_ = 0;
  std::size_t v2_count_ = 0;
  std::uint64_t denom_ = 1;
  // [i * n + v]: vertex v's start state in instance i; V1 first, then V2,
  // in enumeration order.
  std::vector<std::uint64_t> start_states_;
  // [v * (n - 1) + p]: the peer behind port p of v in Wiring::kt1(n).
  std::vector<std::uint8_t> peers_;
};

// Candidate ordering for every driver: strictly smaller scaled error wins;
// exact ties break toward the lexicographically smaller serialization, so
// "the best strategy" is a unique, thread-count-independent answer even when
// many tables score identically.
bool candidate_improves(const FitnessResult& incumbent_score, const std::string& incumbent_key,
                        const FitnessResult& challenger_score,
                        const std::string& challenger_key);

}  // namespace bcclb
