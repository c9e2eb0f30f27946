// The fitness oracle: exact distributional error of a strategy under µ.
//
// A candidate's fitness is its error under the hard distribution of
// Theorem 3.1 — mass 1/2 uniform on the one-cycle structures V1, 1/2
// uniform on the two-cycle structures V2 — measured by running the strategy
// on *every* canonical instance. The oracle runs the table's state machine
// (search/strategy.h) over flat arrays: a vertex's start state does not
// depend on the table, so it is recorded once per instance, and every
// canonical instance shares the Wiring::kt1(n) port→peer table. The start
// states come straight from the cycle structures: vertex v's KT-0 view is
// its ID and the sorted ports kt1.port_at(v, u) of its two cycle neighbours
// u. Only engine_replay builds BccInstances. The tally
// is kept as an exact integer: scaling by 2·|V1|·|V2| turns µ1 = 1/(2|V1|)
// into weight |V2| per one-cycle miss and µ2 into weight |V1| per two-cycle
// miss, so fitness comparisons (and therefore every search decision) are
// integer comparisons, free of floating-point tie hazards, and bit-identical
// at any BCCLB_THREADS.
//
// The oracle also owns the anomaly policy (DESIGN.md §11): a new best
// candidate is checked against its own Theorem 3.1 matching certificate.
// The certificate comes from the same flat start-state table: the oracle
// runs the table over V1, takes the heaviest transcript label (x, y), and
// builds G^t_{x,y} and its maximum matching M. |M| crossed pairs must each
// absorb min(µ1, µ2) error, so scaled error < |M|·min(|V1|, |V2|) is
// mathematically impossible. Such a score is replayed on the RoundEngine,
// the second execution path: the score through strategy_factory on freshly
// built canonical instances, the floor through kt0_matching_experiment (the
// referee certificate). It is thrown as VerifierAnomalyError either way,
// naming whichever replay disagreed: a verifier bug, not a discovery.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bcc/batch_runner.h"
#include "graph/cycle_structure.h"
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
  // Enumerates the canonical instances once, keeps the enumerations, and
  // records every vertex's start state and every one-cycle's clockwise
  // edges; 6 <= n <= 9 (the exhaustive range the decision optimizer
  // supports).
  FitnessOracle(std::size_t n, unsigned rounds);

  std::size_t n() const { return n_; }
  unsigned rounds() const { return rounds_; }
  std::size_t v1_count() const { return v1_count_; }
  std::size_t v2_count() const { return v2_count_; }
  std::size_t num_instances() const { return v1_count_ + v2_count_; }
  std::uint64_t denom() const { return denom_; }

  // [i * n + v]: vertex v's start state in instance i; V1 first, then V2,
  // in enumeration order.
  std::span<const std::uint64_t> start_states() const { return start_states_; }

  // Runs the strategy on every instance over the flat start-state table, in
  // contiguous blocks of instances on up to runner.num_threads() workers
  // (n = 7 is too small to be worth a thread and runs inline), with a serial
  // tally in instance order. Pure in the table: the result is bit-identical
  // across thread counts.
  FitnessResult evaluate(const StrategyTable& table, const BatchRunner& runner) const;

  // The same score from the second execution path: strategy_factory(table)
  // through one RoundEngine, serially, on freshly built canonical instances.
  FitnessResult engine_replay(const StrategyTable& table) const;

  // The candidate's own certified floor, scaled to denom(). Runs the table
  // over V1 on the flat start-state table, picks the label (x, y) of most
  // active-edge mass as kt0_matching_experiment does, builds the Theorem 3.1
  // indistinguishability graph G^t_{x,y} on one thread and returns
  // max_matching · min(|V1|, |V2|): the floor kt0_matching_experiment gives,
  // without its RoundEngine runs. Any valid evaluation satisfies
  // err_scaled >= this value. table.rounds must equal rounds().
  std::uint64_t certificate_floor_scaled(const StrategyTable& table) const;

  // The anomaly policy: if `score.err_scaled` < the candidate's certificate
  // floor, replays the score (engine_replay) and the floor
  // (kt0_matching_experiment, the referee certificate) on the RoundEngine
  // and throws VerifierAnomalyError naming which of them disagrees — the
  // score, the floor, or neither. Either way the toolchain, not the
  // candidate, is broken. Returns the certificate floor it checked against,
  // for reporting.
  std::uint64_t check_candidate(const StrategyTable& table, const FitnessResult& score) const;

 private:
  std::size_t n_;
  unsigned rounds_;
  std::size_t v1_count_ = 0;
  std::size_t v2_count_ = 0;
  std::uint64_t denom_ = 1;
  std::vector<std::uint64_t> start_states_;
  // [v * (n - 1) + p]: the peer behind port p of v in Wiring::kt1(n).
  std::vector<std::uint8_t> peers_;
  // V1 and V2 in enumeration order, for the certificate's graph build and
  // engine_replay.
  std::vector<CycleStructure> one_cycles_;
  std::vector<CycleStructure> two_cycles_;
  // [i * n + e]: tail and head of one-cycle i's e-th clockwise edge, in
  // CycleStructure::directed_edges() order.
  std::vector<std::uint8_t> edge_tails_;
  std::vector<std::uint8_t> edge_heads_;
};

// Candidate ordering for every driver: strictly smaller scaled error wins;
// exact ties break toward the lexicographically smaller serialization, so
// "the best strategy" is a unique, thread-count-independent answer even when
// many tables score identically.
bool candidate_improves(const FitnessResult& incumbent_score, const std::string& incumbent_key,
                        const FitnessResult& challenger_score,
                        const std::string& challenger_key);

}  // namespace bcclb
