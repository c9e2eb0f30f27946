// The KT-0 lower-bound engine: executable versions of Theorem 3.5 (the
// star hard distribution) and Theorem 3.1 (the full indistinguishability
// graph with its matching-based constant error bound).
//
// Both experiments run a concrete t-round KT-0 algorithm through the BCC
// simulator, derive the active-edge structure from the transcripts, perform
// the actual port-preserving crossings, and measure (a) verified
// indistinguishability and (b) the error mass any algorithm with those
// transcripts must absorb under the hard distribution µ.
#pragma once

#include <cstdint>
#include <string>

#include "bcc/instance_view.h"
#include "bcc/round_engine.h"
#include "crossing/indistinguishability_graph.h"
#include "graph/cycle_structure.h"

namespace bcclb {

// ---- Implicit-scale classification ------------------------------------------
//
// The upper-bound side at sizes enumeration cannot reach: run the min-ID
// flood (the Θ(n)-round KT-0 Connectivity baseline) on an implicitly defined
// instance through the SoA engine and check the verdict against the
// family's closed-form component count. This is the n = 10^6 experiment —
// state stays O(n) because neither the instance nor the engine ever
// materializes an adjacency or wiring table.

struct ImplicitClassifyReport {
  ImplicitSpec spec;
  unsigned bandwidth = 0;
  unsigned rounds_executed = 0;
  bool decision = false;      // the algorithm's Connectivity verdict
  bool ground_truth = false;  // closed-form: num_components == 1
  bool verdict_correct = false;
  std::uint64_t components_found = 0;     // label classes after the run
  std::uint64_t components_expected = 0;  // 0 = family has no closed form
  std::uint64_t total_bits_broadcast = 0;
  std::uint64_t labels_digest = 0;
  std::uint64_t transcript_digest = 0;  // 0 unless digest_transcript
  std::uint64_t peak_buffer_bytes = 0;
  std::uint64_t wall_time_ns = 0;
  double rounds_per_sec = 0.0;
};

// Runs min-ID flooding over the spec's instance. bandwidth 0 picks the
// smallest width that carries every ID; threads is the reduction width;
// digest_transcript streams the round-major digest (O(n)/round — leave off
// at scale). For kRandomRegular (no closed-form component count) the report
// checks the verdict against the algorithm's own label count instead.
ImplicitClassifyReport implicit_classify_experiment(const ImplicitSpec& spec,
                                                    unsigned bandwidth = 0, unsigned threads = 1,
                                                    bool digest_transcript = false);

// ---- Theorem 3.5: the star distribution -------------------------------------

struct StarErrorReport {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t independent_set_size = 0;  // |S| = floor(n/3)
  std::size_t largest_class_size = 0;    // |S'| — same-label edges within S
  double pigeonhole_floor = 0.0;         // |S| / 3^(2t)
  // Error forced on the star distribution: C(|S'|, 2) / (2 C(|S|, 2)).
  double forced_error = 0.0;
  double theory_floor = 0.0;  // Ω(3^{-4t}) reference curve
  // Crossings of same-class pairs verified indistinguishable after t rounds
  // (vertex state signatures equal), out of those checked.
  std::size_t crossings_verified = 0;
  std::size_t crossings_checked = 0;
  // The algorithm's realized error under the star distribution µ itself
  // (mass 1/2 on I, 1/2 uniform on all crossings I(e, e'), e, e' in S).
  double measured_error = 0.0;
};

// Runs the factory's algorithm for t rounds on the canonical one-cycle
// instance, buckets the bn/3c independent edges S by their 2t-character
// labels, and verifies Lemma 3.4 on same-class crossings (up to
// max_verifications of them, chosen deterministically).
StarErrorReport star_error_experiment(std::size_t n, unsigned t,
                                      const AlgorithmFactory& factory,
                                      const PublicCoins* coins = nullptr,
                                      std::size_t max_verifications = 64);

// ---- Theorem 3.1: the indistinguishability graph ----------------------------

struct Kt0MatchingReport {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t v1 = 0;  // |V1|
  std::size_t v2 = 0;  // |V2|
  double size_ratio = 0.0;          // |V2| / |V1|
  double harmonic_prediction = 0.0;  // H_{n/2} - 3/2 (Lemma 3.9's constant)
  std::string best_label;            // the (x, y) class used for G^t_{x,y}
  std::size_t graph_edges = 0;
  std::size_t max_matching = 0;
  unsigned max_saturating_k = 0;     // largest k with a saturating k-matching
  // Error any algorithm with these transcripts must make under µ:
  // |M| * min(µ1, µ2) with µ1 = 1/(2|V1|), µ2 = 1/(2|V2|).
  double matching_error_bound = 0.0;
  // Realized error of the concrete algorithm under µ (directly measured by
  // running it on every instance).
  double measured_error = 0.0;
};

// Builds G^t_{x,y} for the most frequent transcript label (x, y) of the
// factory's algorithm after t rounds on canonical wirings, computes the
// matching bounds, and measures the algorithm's actual distributional error.
// Exhaustive over the instance space: n <= 10.
Kt0MatchingReport kt0_matching_experiment(std::size_t n, unsigned t,
                                          const AlgorithmFactory& factory,
                                          const PublicCoins* coins = nullptr);

// The activity function "ran algorithm for t rounds; edges labelled x+y".
ActiveEdgeFn algorithm_active_edges(unsigned t, const AlgorithmFactory& factory,
                                    const std::string& x, const std::string& y,
                                    const PublicCoins* coins = nullptr);

struct SampledErrorReport {
  std::size_t n = 0;
  unsigned t = 0;
  std::size_t samples = 0;
  double yes_error = 0.0;       // P[algorithm says NO | one-cycle]
  double no_error = 0.0;        // P[algorithm says YES | two-cycle]
  double total_error = 0.0;     // under µ: (yes_error + no_error) / 2
  double mean_largest_class = 0.0;  // avg largest label class size on the
                                    // sampled one-cycles (pigeonhole mass)
};

// Monte Carlo estimate of the distributional error for sizes beyond
// exhaustive enumeration: samples one-cycle and two-cycle structures
// uniformly-ish (random cyclic orders / random splits) with random KT-0
// wirings, runs the algorithm for t rounds, and tallies errors.
SampledErrorReport kt0_sampled_error(std::size_t n, unsigned t,
                                     const AlgorithmFactory& factory, std::size_t samples,
                                     std::uint64_t seed, const PublicCoins* coins = nullptr);

}  // namespace bcclb
