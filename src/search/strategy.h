// The searchable strategy genome: decision-rule tables over hashed states.
//
// The paper's theorems quantify over *all* t-round BCC(1) algorithms; the
// repository's hand-written adversary family (bcc/algorithms/
// two_cycle_adversaries.h) samples seven points of that space, and the E17
// decision optimizer (core/decision_optimizer.h) optimizes only the final
// vote for a *fixed* broadcast behaviour. A StrategyTable generalizes both
// into one finite, enumerable, mutable object: a table mapping
// (round, hashed-vertex-state bucket) -> broadcast action {silent, 0, 1},
// plus a vote table mapping the final state bucket -> YES/NO. Every
// deterministic KT-0 algorithm whose behaviour factors through the hash
// buckets is expressible; with enough buckets the representation is
// complete for the enumerable instance sizes.
//
// Tables serialize to a canonical text form whose FNV-1a is the strategy's
// content address — two tables behave identically on every instance iff
// their serializations match, so digests index the best-known-strategy
// artifacts and dedup search populations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bcc/round_engine.h"
#include "common/random.h"

namespace bcclb {

// Broadcast actions, in the order mutation cycles through them.
inline constexpr std::uint8_t kActSilent = 0;
inline constexpr std::uint8_t kActSend0 = 1;
inline constexpr std::uint8_t kActSend1 = 2;

struct StrategyTable {
  std::uint32_t n = 0;        // instance size the table was searched for
  std::uint32_t rounds = 0;   // t
  std::uint32_t buckets = 0;  // K: state-hash buckets per round
  // rounds * K entries, row-major by round: action for (round r, bucket k)
  // at [r * K + k]. Values are kActSilent / kActSend0 / kActSend1.
  std::vector<std::uint8_t> broadcast;
  // K entries: vote_no[k] != 0 means a vertex whose final state hashes to
  // bucket k votes NO (the system answers the AND over vertices).
  std::vector<std::uint8_t> vote_no;

  friend bool operator==(const StrategyTable&, const StrategyTable&) = default;
};

// Structural validity: sizes match (n, rounds, buckets) and every cell holds
// a legal value. Throws BCCLB_REQUIRE-style CheckFailure on violation.
void validate_strategy(const StrategyTable& table);

// Canonical text serialization (bcclb-strategy-v1). Deterministic and
// self-describing; strategy_digest() is its FNV-1a.
std::string serialize_strategy(const StrategyTable& table);
std::uint64_t strategy_digest(const StrategyTable& table);

// Seeded constructors and genetic operators. All consume the Rng serially —
// the search drivers draw from one generator on one thread, so results are
// independent of BCCLB_THREADS by construction.
StrategyTable random_strategy(std::uint32_t n, std::uint32_t rounds, std::uint32_t buckets,
                              Rng& rng);
// Flips `flips` uniformly chosen cells to a uniformly chosen *different*
// legal value (broadcast cells cycle over 3 actions, vote cells over 2).
void mutate_strategy(StrategyTable& table, Rng& rng, unsigned flips);
// Row-range crossover: child takes a's broadcast rows [0, cut) and b's rows
// [cut, rounds), with the vote table taken from one parent uniformly.
StrategyTable crossover_strategy(const StrategyTable& a, const StrategyTable& b, Rng& rng);

// The table strategy's state machine, defined once for both execution paths:
// TableAlgorithm on the RoundEngine (strategy_factory) and the fitness
// oracle's flat loop (search/fitness.h). A vertex's state is a running
// FNV-1a hash that folds in one u64 at a time, low byte first.
inline constexpr std::uint64_t kStrategyStateBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
// P^8 mod 2^64: eight FNV-1a steps over zero bytes are eight multiplies.
inline constexpr std::uint64_t kFnvPrime8 = kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime *
                                            kFnvPrime * kFnvPrime * kFnvPrime * kFnvPrime;

// strategy_mix for a value below 256. Its seven upper bytes are zero and XOR
// with 0 changes nothing, so the bytewise loop is (h ^ v) · P^8.
constexpr std::uint64_t strategy_mix_byte(std::uint64_t h, std::uint8_t v) {
  return (h ^ v) * kFnvPrime8;
}

// FNV-1a over the eight bytes of v, low byte first.
constexpr std::uint64_t strategy_mix(std::uint64_t h, std::uint64_t v) {
  if (v <= 0xff) return strategy_mix_byte(h, static_cast<std::uint8_t>(v));
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// The state a vertex starts from: its ID, its input-port count, then each
// input port. A pure function of the KT-0 view; no table cell enters it.
std::uint64_t strategy_start_state(std::uint64_t id, std::span<const Port> input_ports);

// Each round a vertex broadcasts table.broadcast[round * K + state % K] and
// folds that action into its state; then it folds in the round and, for each
// port p in order, p and the code of what it heard there: 0 or 1 for a bit,
// 2 for silence. It votes NO iff table.vote_no[state % K] != 0.
constexpr std::uint8_t strategy_heard_code(std::uint8_t action) {
  return action == kActSilent ? 2 : action == kActSend1 ? 1 : 0;
}

// The VertexAlgorithm a table drives: a running FNV-1a hash of the vertex's
// full local history (ID, input ports, everything sent and received with its
// port) selects the bucket each round; the table supplies the action and the
// final vote. Thread-safe to call concurrently (each invocation returns an
// independent vertex); the table is captured by value.
AlgorithmFactory strategy_factory(StrategyTable table);

}  // namespace bcclb
