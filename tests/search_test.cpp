// The strategy-search subsystem: genome, fitness oracle, drivers, campaign.
//
// The load-bearing properties, each pinned here:
//   - a run is a pure function of its SearchConfig: bit-identical artifacts
//     across BCCLB_THREADS-style worker widths and across repeats;
//   - the seeded drivers rediscover the exhaustive optimum on a space small
//     enough to enumerate (the E17 agreement check);
//   - the campaign checkpoints resume bit-identically after a stop at any
//     batch boundary (the SIGKILL story, minus the signal);
//   - the anomaly policy: a score below the candidate's own Theorem 3.1
//     certificate floor is a VerifierAnomalyError, never a "discovery".
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bcc/batch_runner.h"
#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "core/decision_optimizer.h"
#include "core/kt0_engine.h"
#include "bcc/algorithms/two_cycle_adversaries.h"
#include "bcc/round_engine.h"
#include "crossing/ported_instance.h"
#include "graph/cycle_structure.h"
#include "search/campaign.h"
#include "search/engine.h"
#include "search/fitness.h"
#include "search/strategy.h"

namespace bcclb {
namespace {

std::string test_dir() {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "bcclb_search_" + info->test_suite_name() + "_" +
                    info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string raw_read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

StrategyTable silent_always_yes(std::uint32_t n, std::uint32_t rounds, std::uint32_t buckets) {
  StrategyTable table;
  table.n = n;
  table.rounds = rounds;
  table.buckets = buckets;
  table.broadcast.assign(static_cast<std::size_t>(rounds) * buckets, kActSilent);
  table.vote_no.assign(buckets, 0);
  return table;
}

TEST(Strategy, SerializationIsCanonicalAndDigestsAreContentAddresses) {
  Rng rng(7);
  const StrategyTable a = random_strategy(6, 2, 4, rng);
  validate_strategy(a);
  const std::string text = serialize_strategy(a);
  EXPECT_EQ(text, serialize_strategy(a));  // deterministic
  EXPECT_EQ(strategy_digest(a), fnv1a(text));
  EXPECT_NE(text.find("bcclb-strategy-v1"), std::string::npos);
  EXPECT_NE(text.find("n 6 rounds 2 buckets 4"), std::string::npos);

  // Same seed, same table; the digest is the identity.
  Rng rng2(7);
  EXPECT_EQ(random_strategy(6, 2, 4, rng2), a);
  // A different seed diverges (for this pair — not a universal guarantee,
  // but a regression trip-wire for the Rng plumbing).
  Rng rng3(8);
  EXPECT_NE(strategy_digest(random_strategy(6, 2, 4, rng3)), strategy_digest(a));
}

TEST(Strategy, ValidateRejectsShapeAndValueViolations) {
  StrategyTable bad = silent_always_yes(6, 1, 2);
  bad.broadcast.pop_back();
  EXPECT_THROW(validate_strategy(bad), std::invalid_argument);

  bad = silent_always_yes(6, 1, 2);
  bad.broadcast[0] = 3;  // not a legal action
  EXPECT_THROW(validate_strategy(bad), std::invalid_argument);

  bad = silent_always_yes(6, 1, 2);
  bad.vote_no[1] = 2;  // votes are 0/1
  EXPECT_THROW(validate_strategy(bad), std::invalid_argument);
}

TEST(Strategy, MutationAndCrossoverPreserveValidity) {
  Rng rng(2019);
  const StrategyTable a = random_strategy(6, 2, 4, rng);
  const StrategyTable b = random_strategy(6, 2, 4, rng);

  StrategyTable m = a;
  mutate_strategy(m, rng, 1);
  validate_strategy(m);
  EXPECT_NE(m, a);  // one flip always lands on a *different* legal value

  for (int i = 0; i < 16; ++i) {
    const StrategyTable child = crossover_strategy(a, b, rng);
    validate_strategy(child);
    // Every broadcast row comes verbatim from one parent.
    for (std::uint32_t r = 0; r < child.rounds; ++r) {
      bool from_a = true, from_b = true;
      for (std::uint32_t k = 0; k < child.buckets; ++k) {
        const std::size_t at = static_cast<std::size_t>(r) * child.buckets + k;
        from_a = from_a && child.broadcast[at] == a.broadcast[at];
        from_b = from_b && child.broadcast[at] == b.broadcast[at];
      }
      EXPECT_TRUE(from_a || from_b) << "row " << r;
    }
  }
}

// FNV-1a over the eight bytes of v, low byte first, one step per byte.
std::uint64_t bytewise_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The score of `table` from its own RoundEngine runs of strategy_factory on
// freshly built canonical instances, tallied here rather than by the oracle.
FitnessResult engine_score(const FitnessOracle& oracle, const StrategyTable& table) {
  const AlgorithmFactory factory = strategy_factory(table);
  RoundEngine engine;
  FitnessResult score;
  score.denom = oracle.denom();
  for (const CycleStructure& cs : all_one_cycle_structures(oracle.n())) {
    if (!engine.run(canonical_kt0_instance(cs), 1, factory, oracle.rounds()).decision) {
      ++score.wrong_yes;
    }
  }
  for (const CycleStructure& cs : all_two_cycle_structures(oracle.n())) {
    if (engine.run(canonical_kt0_instance(cs), 1, factory, oracle.rounds()).decision) {
      ++score.wrong_no;
    }
  }
  score.err_scaled = score.wrong_yes * oracle.v2_count() + score.wrong_no * oracle.v1_count();
  return score;
}

TEST(Strategy, OneMultiplyMixEqualsTheBytewiseLoop) {
  for (const std::uint64_t h : {kStrategyStateBasis, std::uint64_t{0}, ~std::uint64_t{0}}) {
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
                                  std::uint64_t{255}, std::uint64_t{256},
                                  std::uint64_t{1} << 63}) {
      EXPECT_EQ(strategy_mix(h, v), bytewise_mix(h, v)) << "h " << h << " v " << v;
      if (v <= 0xff) {
        EXPECT_EQ(strategy_mix_byte(h, static_cast<std::uint8_t>(v)), bytewise_mix(h, v));
      }
    }
  }
}

TEST(Fitness, FlatEvaluationMatchesTheRoundEngine) {
  Rng rng(2027);
  const BatchRunner serial(1);
  const BatchRunner wide(3);
  for (const std::size_t n : {6, 7, 8}) {
    for (unsigned rounds = 1; rounds <= 3; ++rounds) {
      const FitnessOracle oracle(n, rounds);
      for (std::uint32_t buckets = 1; buckets <= 8; ++buckets) {
        const StrategyTable random =
            random_strategy(static_cast<std::uint32_t>(n), rounds, buckets, rng);
        // The constant tables keep the random votes, so the final state
        // hash still decides the answer.
        StrategyTable silent = random;
        silent.broadcast.assign(silent.broadcast.size(), kActSilent);
        StrategyTable send1 = random;
        send1.broadcast.assign(send1.broadcast.size(), kActSend1);
        const StrategyTable* const tables[] = {&random, &silent, &send1};
        for (const StrategyTable* table : tables) {
          const FitnessResult flat = oracle.evaluate(*table, serial);
          ASSERT_EQ(flat, engine_score(oracle, *table))
              << "n " << n << " rounds " << rounds << "\n" << serialize_strategy(*table);
          ASSERT_EQ(oracle.evaluate(*table, wide), flat);
        }
        ASSERT_EQ(oracle.engine_replay(random), oracle.evaluate(random, serial));
      }
    }
  }
  // The all-silent all-YES table, the E17 anchor, on both paths.
  const FitnessOracle oracle(7, 2);
  EXPECT_EQ(oracle.evaluate(silent_always_yes(7, 2, 4), serial),
            engine_score(oracle, silent_always_yes(7, 2, 4)));
}

TEST(Fitness, SilentAlwaysYesScoresExactlyHalf) {
  // The E17 anchor: with silent broadcasts and all-YES votes the error is
  // all of V2's mass = 1/2, in exact integers.
  const FitnessOracle oracle(6, 1);
  const BatchRunner runner(2);
  const auto score = oracle.evaluate(silent_always_yes(6, 1, 4), runner);
  EXPECT_EQ(score.wrong_yes, 0u);
  EXPECT_EQ(score.wrong_no, oracle.v2_count());
  EXPECT_EQ(score.err_scaled * 2, score.denom);
  EXPECT_DOUBLE_EQ(score.error(), 0.5);
  EXPECT_EQ(score.denom, oracle.denom());

  // And it agrees with the decision optimizer's silent baseline.
  const auto rep = optimize_decision_rule(
      6, 1, two_cycle_adversary_factory(AdversaryKind::kSilent, 1, always_yes_rule()));
  EXPECT_EQ(rep.greedy_error_num * 2, rep.greedy_error_den);
}

TEST(Fitness, EvaluationIsThreadCountInvariant) {
  const FitnessOracle oracle(6, 2);
  Rng rng(99);
  const StrategyTable table = random_strategy(6, 2, 4, rng);
  const auto serial = oracle.evaluate(table, BatchRunner(1));
  const auto wide = oracle.evaluate(table, BatchRunner(8));
  EXPECT_EQ(serial, wide);
}

StrategyTable uniform_broadcast(std::uint32_t n, std::uint32_t rounds, std::uint32_t buckets,
                                std::uint8_t action) {
  StrategyTable table = silent_always_yes(n, rounds, buckets);
  table.broadcast.assign(table.broadcast.size(), action);
  return table;
}

// The flat certificate (the oracle's own transcripts, label census and
// graph build) must equal the RoundEngine referee's floor on every shape:
// random tables and the two single-label extremes, all-silent and
// all-send-1. Three random tables per shape, because a wrong label order
// or edge orientation moves only the floors of tables whose label masses
// tie or are asymmetric.
TEST(Fitness, FlatCertificateMatchesTheMatchingExperiment) {
  Rng rng(28);
  std::size_t tables = 0;
  for (const std::uint32_t n : {6u, 7u, 8u}) {
    for (std::uint32_t t = 1; t <= 3; ++t) {
      const FitnessOracle oracle(n, t);
      const std::uint64_t weight = std::min(oracle.v1_count(), oracle.v2_count());
      for (std::uint32_t k = 1; k <= 8; ++k) {
        for (const StrategyTable& table :
             {random_strategy(n, t, k, rng), random_strategy(n, t, k, rng),
              random_strategy(n, t, k, rng), uniform_broadcast(n, t, k, kActSilent),
              uniform_broadcast(n, t, k, kActSend1)}) {
          const auto referee = kt0_matching_experiment(n, t, strategy_factory(table));
          EXPECT_EQ(oracle.certificate_floor_scaled(table), referee.max_matching * weight)
              << "n=" << n << " t=" << t << " K=" << k << "\n"
              << serialize_strategy(table);
          ++tables;
        }
      }
    }
  }
  EXPECT_EQ(tables, 3u * 3u * 8u * 5u);
}

// Six rounds at n = 7 give well over a hundred distinct sent strings, so
// the certificate's sent-string ranks and label keys span a wide range; it
// must still pick the referee's label.
TEST(Fitness, FlatCertificateMatchesTheMatchingExperimentOnLongTranscripts) {
  Rng rng(6);
  const FitnessOracle oracle(7, 6);
  const std::uint64_t weight = std::min(oracle.v1_count(), oracle.v2_count());
  for (int i = 0; i < 3; ++i) {
    const StrategyTable table = random_strategy(7, 6, 8, rng);
    const auto referee = kt0_matching_experiment(7, 6, strategy_factory(table));
    EXPECT_EQ(oracle.certificate_floor_scaled(table), referee.max_matching * weight)
        << serialize_strategy(table);
  }
  // A certificate is for the oracle's own round count.
  EXPECT_THROW((void)oracle.certificate_floor_scaled(silent_always_yes(7, 5, 2)),
               std::invalid_argument);
}

TEST(Fitness, CandidateOrderIsTotalAndDeterministic) {
  FitnessResult better, worse;
  better.err_scaled = 10;
  worse.err_scaled = 11;
  EXPECT_TRUE(candidate_improves(worse, "a", better, "b"));
  EXPECT_FALSE(candidate_improves(better, "a", worse, "b"));
  // Exact tie: lexicographically smaller serialization wins.
  EXPECT_TRUE(candidate_improves(better, "b", better, "a"));
  EXPECT_FALSE(candidate_improves(better, "a", better, "b"));
  EXPECT_FALSE(candidate_improves(better, "a", better, "a"));
}

TEST(Fitness, ImpossibleScoreIsAVerifierAnomalyNotADiscovery) {
  const FitnessOracle oracle(6, 1);
  const StrategyTable table = silent_always_yes(6, 1, 2);
  // The silent table's certificate floor is positive…
  const std::uint64_t floor = oracle.certificate_floor_scaled(table);
  ASSERT_GT(floor, 0u);
  // …so a claimed below-floor score must fail the serial re-check loudly.
  FitnessResult impossible;
  impossible.err_scaled = 0;
  impossible.denom = oracle.denom();
  try {
    oracle.check_candidate(table, impossible);
    FAIL() << "a below-floor score was accepted as a discovery";
  } catch (const VerifierAnomalyError& e) {
    EXPECT_STREQ(e.kind(), "VerifierAnomalyError");
  }
  // A legitimate score passes and reports the floor it was checked against.
  const auto real = oracle.evaluate(table, BatchRunner(2));
  EXPECT_EQ(oracle.check_candidate(table, real), floor);
  EXPECT_GE(real.err_scaled, floor);
}

TEST(Fitness, ScoreDisagreeingWithTheEngineReplayIsAnAnomaly) {
  const FitnessOracle oracle(6, 1);
  const StrategyTable table = silent_always_yes(6, 1, 2);
  const std::uint64_t floor = oracle.certificate_floor_scaled(table);
  ASSERT_GT(floor, 0u);
  // One below the floor, and not what the RoundEngine replay scores.
  FitnessResult claimed;
  claimed.denom = oracle.denom();
  claimed.err_scaled = floor - 1;
  ASSERT_NE(claimed, oracle.engine_replay(table));
  try {
    oracle.check_candidate(table, claimed);
    FAIL() << "a below-floor score was accepted as a discovery";
  } catch (const VerifierAnomalyError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the RoundEngine replay disagrees with that score"), std::string::npos)
        << what;
    // The floor is replayed too, and the referee certificate agrees with it.
    EXPECT_NE(what.find("the RoundEngine certificate confirms that floor"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("the RoundEngine certificate disagrees"), std::string::npos) << what;
  }
}

TEST(Search, SeededDriversRediscoverTheExhaustiveOptimum) {
  // n=6 t=1 K=2: 3^2 · 2^2 = 36 tables, fully enumerable. The exhaustive
  // driver is ground truth; the seeded drivers must land on the same optimal
  // error (this is the E17 agreement check scaled to the searchable genome).
  const FitnessOracle oracle(6, 1);
  SearchConfig config;
  config.n = 6;
  config.rounds = 1;
  config.buckets = 2;
  config.driver = SearchDriver::kExhaustive;
  const SearchOutcome truth = run_search(config, oracle);
  EXPECT_EQ(truth.evaluated, 36u);
  EXPECT_GE(truth.best_score.err_scaled, truth.floor_scaled);

  config.budget = 64;
  config.seed = 2019;
  for (const SearchDriver driver : {SearchDriver::kRandom, SearchDriver::kEvolution}) {
    config.driver = driver;
    const SearchOutcome found = run_search(config, oracle);
    EXPECT_EQ(found.best_score.err_scaled, truth.best_score.err_scaled)
        << search_driver_name(driver);
    // Same exact order, same space: the unique best table must coincide.
    EXPECT_EQ(strategy_digest(found.best), strategy_digest(truth.best))
        << search_driver_name(driver);
  }
}

TEST(Search, RunIsAPureFunctionOfItsConfig) {
  const FitnessOracle oracle(6, 1);
  SearchConfig config;
  config.n = 6;
  config.rounds = 1;
  config.buckets = 4;
  config.budget = 48;
  config.seed = 31337;
  config.driver = SearchDriver::kEvolution;

  config.threads = 1;
  const SearchOutcome serial = run_search(config, oracle);
  config.threads = 8;
  const SearchOutcome wide = run_search(config, oracle);
  // threads is a scheduling knob: the artifact text (and so every digest
  // downstream) must not change. Render with threads pinned out of view —
  // the artifact never mentions it.
  EXPECT_EQ(render_search_artifact(config, serial), render_search_artifact(config, wide));
  EXPECT_EQ(serial.best_score, wide.best_score);
  EXPECT_EQ(serial.evaluated, wide.evaluated);
  EXPECT_EQ(serial.improvements, wide.improvements);
}

TEST(Search, ExhaustiveRefusesSpacesOverTheCap) {
  SearchConfig config;
  config.n = 6;
  config.rounds = 3;
  config.buckets = 16;  // 3^48 · 2^16 — absurd; must refuse, not spin
  config.driver = SearchDriver::kExhaustive;
  EXPECT_THROW(run_search(config), std::invalid_argument);
}

TEST(Search, BandwidthBeyondOneIsRefused) {
  SearchConfig config;
  config.bandwidth = 2;
  EXPECT_THROW(run_search(config), std::invalid_argument);
}

TEST(Search, ArtifactReportsTheBoundWasRespected) {
  SearchConfig config;
  config.n = 6;
  config.rounds = 1;
  config.buckets = 2;
  config.driver = SearchDriver::kExhaustive;
  const SearchOutcome outcome = run_search(config);
  const std::string artifact = render_search_artifact(config, outcome);
  EXPECT_NE(artifact.find("bound-respected yes"), std::string::npos) << artifact;
  EXPECT_NE(artifact.find("strategy-digest"), std::string::npos);
  EXPECT_NE(artifact.find(serialize_strategy(outcome.best)), std::string::npos);
}

TEST(SearchCampaign, JobSeedsAreDeterministicAndPerCell) {
  EXPECT_EQ(search_job_seed(2019, "n6-t1-random"), search_job_seed(2019, "n6-t1-random"));
  EXPECT_NE(search_job_seed(2019, "n6-t1-random"), search_job_seed(2019, "n6-t1-evolution"));
  EXPECT_NE(search_job_seed(2019, "n6-t1-random"), search_job_seed(2020, "n6-t1-random"));
}

TEST(SearchCampaign, HasUniqueNamesAndAnExhaustiveGroundTruthCell) {
  const Campaign campaign = search_campaign(2019);
  EXPECT_EQ(campaign.name, "search");
  ASSERT_GE(campaign.jobs.size(), 4u);
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < campaign.jobs.size(); ++j) {
      EXPECT_NE(campaign.jobs[i].name, campaign.jobs[j].name);
    }
  }
  bool has_exhaustive = false;
  for (const CampaignJob& job : campaign.jobs) {
    has_exhaustive = has_exhaustive || job.name.find("exhaustive") != std::string::npos;
  }
  EXPECT_TRUE(has_exhaustive);
}

TEST(SearchCampaign, StopAtEveryBoundaryThenResumeIsBitIdentical) {
  // The SIGKILL-resume contract, driven through the interrupt seam the CLI
  // uses: stop after k batches, resume, and demand the final artifacts match
  // an uninterrupted run byte for byte.
  const std::string base = test_dir();
  const Campaign campaign = search_campaign(77);

  CampaignConfig ref_config;
  ref_config.dir = base + "/ref";
  ref_config.threads = 1;
  ASSERT_TRUE(CampaignRunner(ref_config).run(campaign).all_done());
  const std::string ref_final = raw_read(campaign_final_path(ref_config.dir));
  const std::string ref_golden = raw_read(campaign_golden_path(ref_config.dir));
  ASSERT_FALSE(ref_golden.empty());

  for (unsigned stop_after = 1; stop_after <= 3; ++stop_after) {
    const std::string dir = base + "/stop" + std::to_string(stop_after);
    CampaignConfig interrupted;
    interrupted.dir = dir;
    interrupted.threads = 1;
    interrupted.stop_after_batches = stop_after;
    EXPECT_TRUE(CampaignRunner(interrupted).run(campaign).interrupted);

    CampaignConfig resume;
    resume.dir = dir;
    resume.threads = 1;
    resume.resume = true;
    EXPECT_TRUE(CampaignRunner(resume).run(campaign).all_done());
    EXPECT_EQ(raw_read(campaign_final_path(dir)), ref_final) << "stop_after " << stop_after;
    EXPECT_EQ(raw_read(campaign_golden_path(dir)), ref_golden) << "stop_after " << stop_after;
  }
}

TEST(SearchCampaign, SingleCellCampaignEncodesTheCellInItsName) {
  SearchConfig config;
  config.n = 6;
  config.rounds = 1;
  config.buckets = 2;
  config.budget = 8;
  config.seed = 5;
  config.driver = SearchDriver::kRandom;
  const Campaign campaign = single_cell_search_campaign(config);
  ASSERT_EQ(campaign.jobs.size(), 1u);
  EXPECT_EQ(campaign.name, "search-n6-t1-random-k2-b8");
  EXPECT_EQ(campaign.jobs[0].name, "n6-t1-random-k2-b8");
  EXPECT_EQ(campaign.seed, 5u);

  // Two different cells can never share a checkpoint: names differ.
  config.budget = 9;
  EXPECT_NE(single_cell_search_campaign(config).name, campaign.name);
}

}  // namespace
}  // namespace bcclb
