// E15 — the KT-0 / KT-1 knowledge gap (Section 1.1's remark): at
// b = Ω(log n) every KT-1 algorithm runs in KT-0 at a constant-round
// surcharge (announce IDs once), while at b = o(log n) the surcharge is
// ω(1) — which is exactly why the paper's KT-0 and KT-1 lower bounds need
// different techniques.
//
// Series reported: native-KT-1 Boruvka rounds vs bootstrap-KT-0 rounds
// across bandwidths, the announcement surcharge ceil(ceil(log2 n)/b), and
// correctness on random wirings.
#include <cstdio>

#include "bcc_lb.h"
#include "common/mathutil.h"

using namespace bcclb;

int main() {
  std::printf("E15: the KT-0 -> KT-1 knowledge gap\n");
  std::printf("%4s %3s | %10s %11s %10s | %7s\n", "n", "b", "native-KT1", "bootstrapped",
              "surcharge", "correct");

  Rng rng(101);
  RoundEngine engine;
  for (std::size_t n : {16u, 32u, 64u}) {
    for (unsigned b : {1u, 2u, 4u, 8u}) {
      const Graph g = random_one_cycle(n, rng).to_graph();
      const RunResult kt1 = engine.run(BccInstance::kt1(g), b, boruvka_factory(), 2000);
      const RunResult kt0 =
          engine.run(BccInstance::random_kt0(g, rng), b, kt0_bootstrap(boruvka_factory()), 2000);

      const unsigned surcharge = Kt0BootstrapAlgorithm::bootstrap_rounds(n, b);
      const bool correct = kt0.decision && kt1.decision &&
                           kt0.rounds_executed == kt1.rounds_executed + surcharge;
      std::printf("%4zu %3u | %10u %11u %10u | %7s\n", n, b, kt1.rounds_executed,
                  kt0.rounds_executed, surcharge, correct ? "yes" : "NO");
    }
  }
  std::printf(
      "\nPaper prediction: surcharge = ceil(ceil(log2 n)/b) — O(1) once b = Omega(log n)\n"
      "(no KT-0/KT-1 distinction), Theta(log n) at b = 1 (the regime where Theorem 3.1\n"
      "and Theorem 4.4 live on different proofs).\n");
  return 0;
}
