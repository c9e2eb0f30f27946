// Tests for the KT-0 lower-bound engine (Theorems 3.5 and 3.1).
#include <gtest/gtest.h>

#include "bcc/algorithms/two_cycle_adversaries.h"
#include "common/random.h"
#include "core/kt0_engine.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

struct StarCase {
  AdversaryKind kind;
  unsigned t;
};

class StarExperiment : public ::testing::TestWithParam<StarCase> {};

TEST_P(StarExperiment, PigeonholeAndIndistinguishabilityHold) {
  const auto [kind, t] = GetParam();
  const PublicCoins coins(17, 1024);
  const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
  const auto report = star_error_experiment(24, t, factory, &coins);

  EXPECT_EQ(report.independent_set_size, 8u);  // floor(24/3)
  // Theorem 3.5's pigeonhole: some class has >= |S| / 3^(2t) edges.
  EXPECT_GE(static_cast<double>(report.largest_class_size), report.pigeonhole_floor - 1e-9);
  EXPECT_GE(report.largest_class_size, 1u);
  // Lemma 3.4: every same-class crossing is state-indistinguishable.
  EXPECT_EQ(report.crossings_verified, report.crossings_checked)
      << adversary_kind_name(kind) << " t=" << t;
  if (report.largest_class_size >= 2) {
    EXPECT_GT(report.crossings_checked, 0u);
    EXPECT_GT(report.forced_error, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndRounds, StarExperiment,
    ::testing::Values(StarCase{AdversaryKind::kSilent, 1}, StarCase{AdversaryKind::kSilent, 3},
                      StarCase{AdversaryKind::kIdBits, 1}, StarCase{AdversaryKind::kIdBits, 2},
                      StarCase{AdversaryKind::kHashedId, 2},
                      StarCase{AdversaryKind::kCoinXorId, 2},
                      StarCase{AdversaryKind::kPortParity, 2},
                      StarCase{AdversaryKind::kEcho, 2}));

TEST(StarExperiment, MeasuredErrorDominatesForcedError) {
  // The forced error certifies a floor for ANY algorithm with these
  // transcripts; the concrete run must sit at or above it.
  const PublicCoins coins(19, 1024);
  for (const AdversaryKind kind :
       {AdversaryKind::kSilent, AdversaryKind::kIdBits, AdversaryKind::kEcho}) {
    for (unsigned t : {1u, 2u}) {
      const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
      const auto rep = star_error_experiment(24, t, factory, &coins);
      EXPECT_GE(rep.measured_error + 1e-9, rep.forced_error)
          << adversary_kind_name(kind) << " t=" << t;
    }
  }
}

TEST(StarExperiment, SilentAlgorithmKeepsWholeClass) {
  // Silence means every edge carries the same label: |S'| = |S| and the
  // forced error is exactly 1/2 of the NO mass... i.e. C(s,2)/(2 C(s,2)) = 0.5.
  const auto report = star_error_experiment(
      30, 5, two_cycle_adversary_factory(AdversaryKind::kSilent, 5, always_yes_rule()));
  EXPECT_EQ(report.largest_class_size, report.independent_set_size);
  EXPECT_DOUBLE_EQ(report.forced_error, 0.5);
}

TEST(StarExperiment, ErrorFloorDecaysNoFasterThanTheory) {
  // For each t the forced error should dominate the 3^{-4t}/2 reference.
  for (unsigned t = 1; t <= 3; ++t) {
    const auto report = star_error_experiment(
        27, t, two_cycle_adversary_factory(AdversaryKind::kHashedId, t, always_yes_rule()));
    if (report.largest_class_size >= 2) {
      EXPECT_GE(report.forced_error, report.theory_floor * 0.9) << "t=" << t;
    }
  }
}

TEST(MatchingExperiment, SilentAlgorithmAtSmallN) {
  const auto factory =
      two_cycle_adversary_factory(AdversaryKind::kSilent, 2, always_yes_rule());
  const auto report = kt0_matching_experiment(7, 2, factory);
  EXPECT_EQ(report.v1, 360u);   // 6!/2
  EXPECT_EQ(report.v2, 105u);   // C(6,2)*1*(3!)/2 + ... = two-cycle covers of 7
  // All edges share the silent label, so the graph is the round-0 graph and
  // the smaller side saturates.
  EXPECT_EQ(report.best_label, "____");
  EXPECT_EQ(report.max_matching, 105u);
  EXPECT_GT(report.matching_error_bound, 0.0);
  // The always-YES silent algorithm errs on every two-cycle instance: its
  // measured error (0.5) must dominate the matching bound.
  EXPECT_DOUBLE_EQ(report.measured_error, 0.5);
  EXPECT_LE(report.matching_error_bound, report.measured_error + 1e-12);
}

TEST(MatchingExperiment, MatchingBoundIsAlwaysALowerBoundOnError) {
  // The matching bound certifies error for ANY algorithm with these
  // transcripts — in particular the concrete one we measured.
  const PublicCoins coins(23, 1024);
  for (AdversaryKind kind :
       {AdversaryKind::kIdBits, AdversaryKind::kHashedId, AdversaryKind::kEcho}) {
    for (unsigned t = 1; t <= 2; ++t) {
      const auto factory = two_cycle_adversary_factory(kind, t, always_yes_rule());
      const auto report = kt0_matching_experiment(7, t, factory, &coins);
      EXPECT_LE(report.matching_error_bound, report.measured_error + 1e-9)
          << adversary_kind_name(kind) << " t=" << t;
    }
  }
}

TEST(MatchingExperiment, ParityRuleAlsoObeysTheBound) {
  // A rule that answers NO sometimes still cannot beat indistinguishability.
  const auto factory = two_cycle_adversary_factory(AdversaryKind::kIdBits, 2, parity_rule());
  const auto report = kt0_matching_experiment(7, 2, factory);
  EXPECT_LE(report.matching_error_bound, report.measured_error + 1e-9);
}

TEST(MatchingExperiment, SizeRatioMatchesLemma39Prediction) {
  const auto factory =
      two_cycle_adversary_factory(AdversaryKind::kSilent, 1, always_yes_rule());
  const auto report = kt0_matching_experiment(8, 1, factory);
  EXPECT_GT(report.size_ratio / report.harmonic_prediction, 0.4);
  EXPECT_LT(report.size_ratio / report.harmonic_prediction, 2.5);
}

TEST(SampledError, LargeNStaysNearHalfForShallowAlgorithms) {
  // Beyond exhaustive sizes: t = o(log n) adversaries keep distributional
  // error near 1/2 (they err on essentially all two-cycle inputs).
  const PublicCoins coins(3, 4096);
  for (const AdversaryKind kind : {AdversaryKind::kSilent, AdversaryKind::kHashedId}) {
    const auto factory = two_cycle_adversary_factory(kind, 2, always_yes_rule());
    const auto rep = kt0_sampled_error(48, 2, factory, 60, 7, &coins);
    EXPECT_DOUBLE_EQ(rep.yes_error, 0.0) << adversary_kind_name(kind);
    EXPECT_DOUBLE_EQ(rep.no_error, 1.0) << adversary_kind_name(kind);
    EXPECT_DOUBLE_EQ(rep.total_error, 0.5) << adversary_kind_name(kind);
    // Pigeonhole mass: largest label class >= n / 3^(2t).
    EXPECT_GE(rep.mean_largest_class, 48.0 / 81.0) << adversary_kind_name(kind);
  }
}

TEST(SampledError, CountsAreConsistent) {
  const auto factory =
      two_cycle_adversary_factory(AdversaryKind::kIdBits, 1, parity_rule());
  const auto rep = kt0_sampled_error(24, 1, factory, 40, 11);
  EXPECT_EQ(rep.samples, 40u);
  EXPECT_GE(rep.total_error, 0.0);
  EXPECT_LE(rep.total_error, 1.0);
  EXPECT_NEAR(rep.total_error, 0.5 * (rep.yes_error + rep.no_error), 1e-12);
}

}  // namespace
}  // namespace bcclb
