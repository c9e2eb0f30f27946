// The three dials of the congested-clique world, in one tour:
//
//   knowledge (KT-0 vs KT-1)  — Section 1.1: at b = Ω(log n) the gap is one
//                               announcement round; at b = 1 it is Θ(log n);
//   range     (BCC vs CC)     — Section 1.3 / Becker et al.: distinct
//                               messages per round slide disjointness from
//                               Θ(n/b) rounds to O(1);
//   bandwidth (b)             — Section 1.2: a t-round BCC(1) bound is a
//                               t/b-round BCC(b) bound.
//
// Plus the neighboring CONGEST world where most related lower bounds live.
#include <cstdio>

#include "bcc_lb.h"
#include "common/mathutil.h"

using namespace bcclb;

int main() {
  Rng rng(7);
  std::printf("bcc_lb model spectrum tour\n==========================\n");

  // Dial 1: knowledge.
  std::printf("\n[knowledge] Boruvka on a 32-cycle, KT-1 native vs KT-0 bootstrapped:\n");
  const Graph cyc = random_one_cycle(32, rng).to_graph();
  RoundEngine engine;
  for (unsigned b : {1u, 5u}) {
    const auto r1 = engine.run(BccInstance::kt1(cyc), b, boruvka_factory(), 2000);
    const auto r0 =
        engine.run(BccInstance::random_kt0(cyc, rng), b, kt0_bootstrap(boruvka_factory()), 2000);
    std::printf("  b=%u: KT-1 %u rounds, KT-0 %u rounds (surcharge %u)\n", b,
                r1.rounds_executed, r0.rounds_executed,
                r0.rounds_executed - r1.rounds_executed);
  }

  // Dial 2: range.
  std::printf("\n[range] 2-party set disjointness embedded in a 34-clique, b = 1:\n");
  DisjointnessInput in;
  in.a.assign(32, false);
  in.b.assign(32, false);
  in.a[5] = in.b[5] = true;
  for (unsigned r : {1u, 4u, 16u, 33u}) {
    RangeSimulator sim(BccInstance::kt1(Graph(34)), r, 1);
    const auto res =
        sim.run(disjointness_factory(in, r), DisjointnessAlgorithm::rounds_needed(34, r, 1) + 2);
    std::printf("  range=%2u: %2u rounds (%s)\n", r, res.rounds_executed,
                r == 1 ? "BCC — the paper's model" : (r == 33 ? "CC — no bottlenecks" : "between"));
  }

  // Dial 3: bandwidth.
  std::printf("\n[bandwidth] the Theorem 4.4 lower-bound curve, rounds >= cc/(4n lg(2^b+1)):\n");
  for (unsigned b : {1u, 2u, 4u, 8u}) {
    std::printf("  b=%u: n=1024 needs >= %.2f rounds\n", b,
                kt1_round_lower_bound(1024, partition_cc_lower_bound(1024), b));
  }

  // Neighbor: CONGEST.
  std::printf("\n[CONGEST] triangle detection on a 32-cycle (the [Fis+18] setting):\n");
  CongestSimulator congest(cyc, 1);
  const auto tri =
      congest.run(triangle_detection_factory(), TriangleDetection::rounds_needed(32, 2, 1) + 2);
  std::printf("  %u rounds at b = 1, verdict: %s\n", tri.rounds_executed,
              tri.decision ? "triangle-free" : "triangle found");

  std::printf(
      "\nThe paper's results live at the corner (KT-0/KT-1, range 1, b = 1) where all\n"
      "three dials are hardest — see DESIGN.md and EXPERIMENTS.md.\n");
  return 0;
}
