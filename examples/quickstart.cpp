// Quickstart: the BCC(b) model in five minutes.
//
// Builds the paper's hard inputs (one cycle vs. two cycles), runs three
// connectivity algorithms on the broadcast congested clique simulator —
// min-ID flooding (Θ(n) rounds), Boruvka-over-broadcast (Θ(log n) phases),
// and randomized AGM-sketch connectivity — and prints rounds and bits,
// illustrating exactly the upper-bound landscape the paper's Ω(log n)
// lower bounds sit under.
#include <cstdio>

#include "bcc_lb.h"

using namespace bcclb;

namespace {

void run_all(const char* name, const Graph& input, unsigned bandwidth, std::uint64_t seed) {
  const BccInstance instance = BccInstance::kt1(input);
  const bool truth = is_connected(input);
  std::printf("\n%s (n = %zu, b = %u, truly %s)\n", name, input.num_vertices(), bandwidth,
              truth ? "CONNECTED" : "DISCONNECTED");
  std::printf("  %-22s %8s %10s %8s\n", "algorithm", "rounds", "bits", "answer");

  RoundEngine engine;
  {
    const RunResult r = engine.run(instance, bandwidth, min_id_flood_factory(),
                                   MinIdFloodAlgorithm::rounds_needed(input.num_vertices()));
    std::printf("  %-22s %8u %10llu %8s\n", "min-id flooding", r.rounds_executed,
                static_cast<unsigned long long>(r.total_bits_broadcast),
                r.decision ? "YES" : "NO");
  }
  {
    const RunResult r =
        engine.run(instance, bandwidth, boruvka_factory(),
                   BoruvkaAlgorithm::max_rounds(input.num_vertices(), bandwidth));
    std::printf("  %-22s %8u %10llu %8s\n", "boruvka broadcast", r.rounds_executed,
                static_cast<unsigned long long>(r.total_bits_broadcast),
                r.decision ? "YES" : "NO");
  }
  {
    const PublicCoins coins(seed, 4096);
    const RunResult r = engine.run(
        instance, bandwidth, sketch_connectivity_factory(),
        SketchConnectivityAlgorithm::max_rounds(input.num_vertices(), bandwidth),
        CoinSpec::public_coins(&coins));
    std::printf("  %-22s %8u %10llu %8s\n", "agm sketches (MC)", r.rounds_executed,
                static_cast<unsigned long long>(r.total_bits_broadcast),
                r.decision ? "YES" : "NO");
  }
}

}  // namespace

int main() {
  std::printf("bcc_lb quickstart — the broadcast congested clique, KT-1 side\n");
  std::printf("=============================================================\n");

  Rng rng(2019);
  const std::size_t n = 32;
  const unsigned b = 6;  // Θ(log n) bandwidth

  run_all("one-cycle instance", random_one_cycle(n, rng).to_graph(), b, 7);
  run_all("two-cycle instance", random_two_cycle(n, rng).to_graph(), b, 7);
  run_all("random forest, 3 trees", random_forest(n, 3, rng), b, 7);

  std::printf(
      "\nLower-bound context: Theorem 4.4 gives Ω(log n) rounds for deterministic\n"
      "KT-1 algorithms at b = 1; Boruvka's Θ(log n) phases at b = Θ(log n) show the\n"
      "bound is tight for sparse inputs (Section 1.1). Run bench/bench_e9_upper_bounds\n"
      "for the full sweep.\n");
  return 0;
}
