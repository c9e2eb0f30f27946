// The decision-rule optimizer: separating "what the broadcasts reveal" from
// "how cleverly you vote".
//
// Fix a broadcast behaviour (an adversary kind) and t rounds. A full
// algorithm also needs a decision rule: each vertex maps its final state to
// a YES/NO vote and the system answers the AND. Theorem 3.1's bound is
// about the broadcasts — indistinguishable instances get equal outputs *no
// matter the rule*. This engine measures both sides of that statement on
// the exhaustive instance space:
//
//   - floor: the matching-certified error (no rule can do better), and
//   - greedy: the error of an explicitly optimized rule — the states are
//     enumerated, and a greedy weighted red-blue-cover heuristic chooses
//     which states vote NO (exact minimization is NP-hard in general).
//
// greedy always lies between floor and the always-YES rule's 0.5; how close
// it gets to floor quantifies how much of the certified indistinguishability
// is actually exploitable.
// The greedy loop works in exact integers: scaling the µ masses by
// 2·|V1|·|V2| makes every marginal gain the integer
// (newly-covered NO count)·|V1| − (newly-broken YES count)·|V2|, so equal
// gains are *exact* ties (no floating-point noise ordering them) and the
// explicit tie-break — lowest state id wins — makes the chosen rule, its
// digest, and greedy_error bit-identical across BCCLB_THREADS and across
// runs. The search subsystem (src/search/) leans on the same convention.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bcc/round_engine.h"

namespace bcclb {

struct DecisionOptimizerReport {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t num_states = 0;       // distinct vertex states across all instances
  std::size_t states_voting_no = 0;  // chosen by the greedy rule
  double always_yes_error = 0.5;     // reference: YES everywhere errs on all of V2
  double greedy_error = 0.0;         // error of the optimized rule under µ
  // Instances whose full state multiset coincides with an instance of the
  // other class — no rule whatsoever can separate those pairs.
  std::size_t inseparable_pairs = 0;
  // Exact value of greedy_error: greedy_error_num / greedy_error_den with
  // greedy_error_den = 2·|V1|·|V2|. The double above is derived from these.
  std::uint64_t greedy_error_num = 0;
  std::uint64_t greedy_error_den = 1;
  // The rule itself: dense state ids voting NO, in greedy selection order
  // (ties resolved toward the lowest id). State ids are interned in the
  // deterministic v1-then-v2 instance order, so this list — and its digest —
  // identifies the rule table across runs and thread counts.
  std::vector<std::uint32_t> chosen_no_states;
  std::uint64_t rule_digest = 0;  // FNV-1a over the sorted chosen ids
};

// Exhaustive over one-/two-cycle structures with canonical wirings; n <= 9.
DecisionOptimizerReport optimize_decision_rule(std::size_t n, unsigned t,
                                               const AlgorithmFactory& broadcast_behaviour,
                                               const PublicCoins* coins = nullptr);

}  // namespace bcclb
