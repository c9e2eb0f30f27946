// E18 — the universal ⌈n/b⌉ ceiling and where each problem sits under it.
//
// Full adjacency exchange solves EVERY graph predicate in ⌈n/b⌉ + O(1)
// rounds. The paper's landscape (introduction):
//   - K4-detection: Ω(n/b) ([DKO14]) — the trivial algorithm is optimal;
//   - Connectivity: Ω(log n) (this paper) ... O(polylog) — far below the
//     ceiling, which is exactly why fine-grained techniques were needed.
// Series reported: universal-algorithm rounds vs n and b, the specialized
// Boruvka rounds for Connectivity on the same inputs, and the crossover —
// the round budget at which "just ship the graph" beats clever algorithms
// (it never does for Connectivity once n is nontrivial).
#include <cmath>
#include <cstdio>

#include "bcc_lb.h"

using namespace bcclb;

int main() {
  std::printf("E18: the universal adjacency-exchange ceiling\n");
  std::printf("%4s %3s | %10s %10s | %10s %9s | %8s\n", "n", "b", "universal", "ceil(n/b)",
              "boruvka", "lg(n)", "correct");

  Rng rng(151);
  RoundEngine engine;
  for (std::size_t n : {16u, 32u, 64u, 128u}) {
    for (unsigned b : {1u, 8u}) {
      const Graph g = random_gnp(n, 1.5 / static_cast<double>(n), rng);
      const BccInstance inst = BccInstance::kt1(g);
      const RunResult u =
          engine.run(inst, b, adjacency_exchange_factory(connectivity_predicate()),
                     AdjacencyExchangeAlgorithm::rounds_needed(n, b) + 1);
      const RunResult r =
          engine.run(inst, b, boruvka_factory(), BoruvkaAlgorithm::max_rounds(n, b));
      const bool ok = u.decision == is_connected(g) && r.decision == is_connected(g);
      std::printf("%4zu %3u | %10u %10u | %10u %9.1f | %8s\n", n, b, u.rounds_executed,
                  (static_cast<unsigned>(n) + b - 1) / b, r.rounds_executed,
                  std::log2(static_cast<double>(n)), ok ? "yes" : "NO");
    }
  }

  std::printf("\nK4-detection on dense graphs (the [DKO14] Omega(n/b) problem):\n");
  std::printf("%4s %3s | %8s %10s | %10s\n", "n", "b", "rounds", "ceil(n/b)", "verdict");
  for (std::size_t n : {16u, 32u, 64u}) {
    const unsigned b = 4;
    const Graph g = random_gnp(n, 0.35, rng);
    const RunResult r = engine.run(BccInstance::kt1(g), b,
                                   adjacency_exchange_factory(k4_free_predicate()),
                                   AdjacencyExchangeAlgorithm::rounds_needed(n, b) + 1);
    std::printf("%4zu %3u | %8u %10u | %10s\n", n, b, r.rounds_executed,
                (static_cast<unsigned>(n) + b - 1) / b,
                r.decision == !graph_has_k4(g) ? (r.decision ? "K4-free" : "has K4")
                                               : "WRONG");
  }
  std::printf(
      "\nPaper context: for K4-detection the ceiling IS the answer (Omega(n/b) from\n"
      "the n^2-bit bottleneck of [DKO14]); for Connectivity the gap between log n\n"
      "and n/b is the space this paper's three lower-bound techniques explore.\n");
  return 0;
}
