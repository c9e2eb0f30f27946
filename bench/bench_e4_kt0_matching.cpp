// E4 — Theorem 3.1: the constant-error KT-0 lower bound via matchings in
// the algorithm-induced indistinguishability graph G^t_{x,y}.
//
// Series reported: for each adversary and t, the best transcript label
// (x, y), the maximum matching in G^t_{x,y}, the largest saturating k
// (Theorem 2.1's k-matching), the error that matching *certifies for any
// algorithm with these transcripts*, and the concrete algorithm's measured
// error under the hard distribution µ (half uniform on V1, half on V2).
#include <cstdio>

#include "bcc_lb.h"

using namespace bcclb;

int main() {
  std::printf("E4: KT-0 constant-error bound via matchings (Theorem 3.1)\n");
  std::printf("%-12s %2s %2s | %-10s %9s %3s | %13s %9s\n", "adversary", "n", "t", "label(x|y)",
              "matching", "k", "certified-err", "measured");

  const PublicCoins coins(17, 4096);
  for (const AdversaryKind kind : all_adversary_kinds()) {
    for (std::size_t n : {7u, 8u}) {
      for (unsigned t : {1u, 2u}) {
        const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
        const auto rep = kt0_matching_experiment(n, t, factory, &coins);
        const std::string label =
            rep.best_label.substr(0, t) + "|" + rep.best_label.substr(t);
        std::printf("%-12s %2zu %2u | %-10s %9zu %3u | %13.4f %9.4f\n",
                    adversary_kind_name(kind), n, t, label.c_str(), rep.max_matching,
                    rep.max_saturating_k, rep.matching_error_bound, rep.measured_error);
      }
    }
  }

  std::printf("\nAnd with a decision rule that sometimes answers NO (parity rule):\n");
  for (unsigned t : {1u, 2u}) {
    const auto factory = two_cycle_adversary_factory(AdversaryKind::kIdBits, t, parity_rule());
    const auto rep = kt0_matching_experiment(8, t, factory, &coins);
    std::printf("%-12s %2u %2u | matching=%zu certified-err=%.4f measured=%.4f\n",
                "idbits+par", 8, t, rep.max_matching, rep.matching_error_bound,
                rep.measured_error);
  }

  std::printf("\nExhaustive at n = 9 (|V1| = 20160, |V2| = 9576):\n");
  for (const AdversaryKind kind : {AdversaryKind::kSilent, AdversaryKind::kEcho}) {
    for (unsigned t : {1u, 2u}) {
      const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
      const auto rep = kt0_matching_experiment(9, t, factory, &coins);
      std::printf("%-12s %2u %2u | matching=%zu certified-err=%.4f measured=%.4f\n",
                  adversary_kind_name(kind), 9, t, rep.max_matching,
                  rep.matching_error_bound, rep.measured_error);
    }
  }

  std::printf("\nSampled estimates beyond exhaustive sizes (600 instances each):\n");
  std::printf("%-12s %4s %2s | %9s %9s %9s | %12s\n", "adversary", "n", "t", "yes-err",
              "no-err", "total", "mean-class");
  for (const AdversaryKind kind :
       {AdversaryKind::kSilent, AdversaryKind::kHashedId, AdversaryKind::kEcho}) {
    for (std::size_t n : {32u, 64u, 128u}) {
      const unsigned t = 3;
      const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
      const auto rep = kt0_sampled_error(n, t, factory, 300, 2024, &coins);
      std::printf("%-12s %4zu %2u | %9.4f %9.4f %9.4f | %12.2f\n",
                  adversary_kind_name(kind), n, t, rep.yes_error, rep.no_error,
                  rep.total_error, rep.mean_largest_class);
    }
  }

  std::printf(
      "\nPaper prediction: certified-err <= measured for every algorithm (matched\n"
      "indistinguishable pairs force equal outputs), and certified-err stays a\n"
      "constant fraction for t = o(log n) — Theorem 3.1's conclusion.\n");
  return 0;
}
