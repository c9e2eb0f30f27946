// Compute, then certify: the full lifecycle of a connectivity claim.
//
//   1. Compute — Boruvka-over-broadcast decides Connectivity and labels
//      components in Θ(log n) rounds (the tight regime at b = Θ(log n)).
//   2. Certify — a prover turns the answer into a proof-labeling scheme:
//      (root, dist) labels of 2⌈log₂ n⌉ bits that a one-round distributed
//      verifier checks ([PP17]'s framework from the paper's Section 1.3).
//   3. Audit — an adversarial prover tries to certify a DISCONNECTED graph
//      and is caught, as is a forged transcript label.
//
// The paper's lower bounds are the other side of this coin: no certification
// (and no algorithm) can beat Ω(log n) bits/rounds for this problem.
#include <cstdio>

#include "bcc_lb.h"

using namespace bcclb;

int main() {
  std::printf("Compute-and-certify connectivity\n================================\n");
  Rng rng(99);

  // --- compute ---------------------------------------------------------------
  const std::size_t n = 24;
  const Graph good = random_one_cycle(n, rng).to_graph();
  const unsigned b = 6;
  RoundEngine engine;
  const RunResult run = engine.run(BccInstance::kt1(good), b, boruvka_factory(),
                                   BoruvkaAlgorithm::max_rounds(n, b));
  std::printf("\n[compute] Boruvka on a %zu-cycle at b=%u: %u rounds -> %s\n", n, b,
              run.rounds_executed, run.decision ? "CONNECTED" : "DISCONNECTED");

  // --- certify ---------------------------------------------------------------
  ConnectivityPls scheme;
  const BccInstance instance = BccInstance::kt1(good);
  const PlsResult cert = run_pls_honest(scheme, instance);
  std::printf("[certify] (root, dist) labels: %zu bits/vertex, verifier %s\n",
              cert.max_label_bits, cert.accepted ? "ACCEPTS" : "rejects");

  // --- audit -----------------------------------------------------------------
  const Graph bad = random_two_cycle(n, rng).to_graph();
  const BccInstance bad_instance = BccInstance::kt1(bad);
  const PlsResult cheat = run_pls_honest(scheme, bad_instance);
  std::size_t naysayers = 0;
  for (bool vote : cheat.votes) {
    if (!vote) ++naysayers;
  }
  std::printf("[audit]   disconnected graph, best-effort labels: verifier %s"
              " (%zu vertices object)\n",
              cheat.accepted ? "FOOLED" : "rejects", naysayers);

  Rng adversary(5);
  const std::size_t fooled = count_fooling_labelings(scheme, bad_instance, 200, adversary);
  std::printf("[audit]   200 adversarial labelings: %zu accepted\n", fooled);

  // Transcript-as-label variant: the [PP17] bridge from algorithms to proofs.
  const unsigned t = MinIdFloodAlgorithm::rounds_needed(n);
  TranscriptPls tp(min_id_flood_factory(), t, 6);
  std::printf("\n[bridge]  flooding transcripts as labels: %zu bits/vertex, %s on the\n"
              "          connected instance, %s on the disconnected one\n",
              tp.label_bits(n), run_pls_honest(tp, instance).accepted ? "accepted" : "REJECTED",
              run_pls_honest(tp, bad_instance).accepted ? "ACCEPTED" : "rejected");
  std::printf(
      "\nAn o(log n)-round BCC(1) algorithm would shrink the bridge's labels below\n"
      "the classical scheme's — Theorems 3.1/4.4 say that cannot happen.\n");
  return 0;
}
