// Fault-injection layer: plan determinism, injection semantics (crash-stop /
// drop / flip / byzantine), the zero-cost guarantee for fault-free runs,
// replay verification, per-job failure isolation in BatchRunner, watchdogs,
// and the transient-retry policy.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bcc/algorithms/boruvka.h"
#include "bcc/algorithms/min_id_flood.h"
#include "bcc/batch_runner.h"
#include "bcc/faults.h"
#include "bcc/round_engine.h"
#include "common/errors.h"
#include "common/random.h"
#include "core/fault_tolerance.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

// Broadcasts a fixed `bits`-wide value every round and finishes after
// `rounds` rounds — a wire probe: the transcript shows exactly what the
// injector put on the channel, independent of any algorithm's parsing.
class ConstantBroadcaster : public VertexAlgorithm {
 public:
  ConstantBroadcaster(std::uint64_t value, unsigned bits, unsigned rounds)
      : value_(value), bits_(bits), rounds_(rounds) {}

  void init(const LocalView&) override {}
  Message broadcast(unsigned) override { return Message::bits(value_, bits_); }
  void receive(unsigned round, std::span<const Message>) override { seen_ = round + 1; }
  bool finished() const override { return seen_ >= rounds_; }
  bool decide() const override { return true; }

 private:
  std::uint64_t value_ = 0;
  unsigned bits_ = 1;
  unsigned rounds_ = 1;
  unsigned seen_ = 0;
};

AlgorithmFactory constant_factory(std::uint64_t value, unsigned bits, unsigned rounds) {
  return [=] { return std::make_unique<ConstantBroadcaster>(value, bits, rounds); };
}

class NeverFinishes : public ConstantBroadcaster {
 public:
  NeverFinishes() : ConstantBroadcaster(1, 1, 1) {}
  bool finished() const override { return false; }
};

BccInstance small_instance(std::size_t n = 6, std::uint64_t seed = 3) {
  Rng rng(seed);
  return BccInstance::kt1(random_one_cycle(n, rng).to_graph());
}

RunResult run_with_plan(const BccInstance& instance, const AlgorithmFactory& factory,
                        unsigned bandwidth, unsigned max_rounds, const FaultPlan& plan) {
  RunOptions options;
  options.faults = &plan;
  RoundEngine engine;
  return engine.run(instance, bandwidth, factory, max_rounds, options);
}

TEST(FaultPlan, RandomIsDeterministicInItsSeed) {
  FaultCounts counts;
  counts.crashes = 2;
  counts.drops = 3;
  counts.flips = 2;
  counts.byzantine = 1;
  const FaultPlan a = FaultPlan::random(99, 10, 6, counts);
  const FaultPlan b = FaultPlan::random(99, 10, 6, counts);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.events().size(), counts.total());

  const FaultPlan c = FaultPlan::random(100, 10, 6, counts);
  EXPECT_NE(a.events(), c.events());
}

TEST(FaultPlan, RandomCrashVictimsAreDistinct) {
  FaultCounts counts;
  counts.crashes = 5;
  const FaultPlan plan = FaultPlan::random(7, 5, 4, counts);
  std::set<VertexId> victims;
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kCrashStop) victims.insert(e.vertex);
  }
  EXPECT_EQ(victims.size(), 5u);
}

TEST(FaultInjection, CrashStopSilencesFromItsRoundOn) {
  const BccInstance instance = small_instance();
  FaultPlan plan;
  plan.crash(/*vertex=*/0, /*round=*/1);
  const RunResult r = run_with_plan(instance, constant_factory(1, 1, 4), 1, 10, plan);

  ASSERT_EQ(r.rounds_executed, 4u);
  EXPECT_FALSE(r.transcript.sent(0, 0).is_silent());
  for (unsigned t = 1; t < 4; ++t) {
    EXPECT_TRUE(r.transcript.sent(0, t).is_silent()) << "round " << t;
  }
  // Every other vertex broadcasts every round.
  for (unsigned t = 0; t < 4; ++t) EXPECT_FALSE(r.transcript.sent(1, t).is_silent());

  EXPECT_EQ(r.crashed_vertices, std::vector<VertexId>{0});
  // Logged once, at the crash round.
  ASSERT_EQ(r.faults_applied.size(), 1u);
  EXPECT_EQ(r.faults_applied[0].kind, FaultKind::kCrashStop);
  EXPECT_EQ(r.faults_applied[0].round, 1u);
  EXPECT_TRUE(r.faults_applied[0].after.is_silent());
}

TEST(FaultInjection, CrashedVerticesCountAsFinished) {
  const BccInstance instance = small_instance(4);
  FaultPlan plan;
  for (VertexId v = 0; v < 4; ++v) plan.crash(v, 0);
  const RunResult r = run_with_plan(
      instance, [] { return std::make_unique<NeverFinishes>(); }, 1, 50, plan);
  // All four vertices crash at round 0, so the run terminates immediately
  // instead of burning 50 rounds against finished() == false.
  EXPECT_LE(r.rounds_executed, 1u);
  EXPECT_TRUE(r.all_finished);
  EXPECT_EQ(r.crashed_vertices.size(), 4u);
}

TEST(FaultInjection, DropSilencesExactlyOneRound) {
  const BccInstance instance = small_instance();
  FaultPlan plan;
  plan.drop(/*vertex=*/2, /*round=*/1);
  const RunResult r = run_with_plan(instance, constant_factory(1, 1, 3), 1, 10, plan);

  ASSERT_EQ(r.rounds_executed, 3u);
  EXPECT_FALSE(r.transcript.sent(2, 0).is_silent());
  EXPECT_TRUE(r.transcript.sent(2, 1).is_silent());
  EXPECT_FALSE(r.transcript.sent(2, 2).is_silent());
  EXPECT_TRUE(r.crashed_vertices.empty());
}

TEST(FaultInjection, FlipXorsTheBroadcastAndLogsBeforeAfter) {
  const BccInstance instance = small_instance();
  FaultPlan plan;
  plan.flip(/*vertex=*/1, /*round=*/0, /*mask=*/0b011);
  const RunResult r = run_with_plan(instance, constant_factory(0b101, 3, 2), 3, 10, plan);

  EXPECT_EQ(r.transcript.sent(1, 0).value(), 0b110u);
  EXPECT_EQ(r.transcript.sent(1, 1).value(), 0b101u);  // only round 0 is hit

  ASSERT_EQ(r.faults_applied.size(), 1u);
  EXPECT_EQ(r.faults_applied[0].kind, FaultKind::kFlipBits);
  EXPECT_EQ(r.faults_applied[0].before.value(), 0b101u);
  EXPECT_EQ(r.faults_applied[0].after.value(), 0b110u);
}

TEST(FaultInjection, FlipMaskIsTruncatedToTheMessageLength) {
  const BccInstance instance = small_instance();
  FaultPlan plan;
  plan.flip(/*vertex=*/0, /*round=*/0, /*mask=*/~0ULL);
  const RunResult r = run_with_plan(instance, constant_factory(0b1, 1, 1), 1, 5, plan);
  // A 64-bit mask against a 1-bit message flips just that bit; the result
  // still fits the bandwidth.
  EXPECT_EQ(r.transcript.sent(0, 0).value(), 0u);
  EXPECT_EQ(r.transcript.sent(0, 0).num_bits(), 1u);
}

TEST(FaultInjection, ByzantineReplacesTheBroadcast) {
  const BccInstance instance = small_instance();
  FaultPlan plan;
  plan.byzantine(/*vertex=*/3, /*round=*/1, /*value=*/0b10, /*bits=*/2);
  const RunResult r = run_with_plan(instance, constant_factory(0b11, 2, 3), 2, 10, plan);
  EXPECT_EQ(r.transcript.sent(3, 1).value(), 0b10u);
  EXPECT_EQ(r.transcript.sent(3, 0).value(), 0b11u);
}

TEST(FaultInjection, OversizedByzantineThrowsWithContext) {
  const BccInstance instance = small_instance();
  FaultPlan plan;
  plan.byzantine(/*vertex=*/2, /*round=*/1, /*value=*/0, /*bits=*/5);  // bandwidth is 2
  try {
    run_with_plan(instance, constant_factory(0b11, 2, 3), 2, 10, plan);
    FAIL() << "expected FaultInjectionError";
  } catch (const FaultInjectionError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(e.context().vertex, 2);
    EXPECT_EQ(e.context().round, 1);
    EXPECT_NE(e.context().instance_digest, 0u);
    EXPECT_NE(std::string(e.what()).find("vertex 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("round 1"), std::string::npos);
  }
}

TEST(FaultInjection, EmptyOrAbsentPlanIsBitIdenticalToThePlainOverload) {
  Rng rng(11);
  const BccInstance instance = BccInstance::kt1(random_gnp(9, 0.4, rng));
  const unsigned cap = BoruvkaAlgorithm::max_rounds(9, 2);

  RoundEngine engine;
  const RunResult plain = engine.run(instance, 2, boruvka_factory(), cap);

  const RunResult defaulted = engine.run(instance, 2, boruvka_factory(), cap, RunOptions{});

  FaultPlan empty_plan;
  RunOptions with_empty;
  with_empty.faults = &empty_plan;
  const RunResult empty = engine.run(instance, 2, boruvka_factory(), cap, with_empty);

  for (const RunResult* r : {&defaulted, &empty}) {
    EXPECT_EQ(r->transcript.digest(), plain.transcript.digest());
    EXPECT_EQ(r->decision, plain.decision);
    EXPECT_EQ(r->rounds_executed, plain.rounds_executed);
    EXPECT_EQ(r->total_bits_broadcast, plain.total_bits_broadcast);
    EXPECT_TRUE(r->faults_applied.empty());
    EXPECT_TRUE(r->crashed_vertices.empty());
  }
}

TEST(FaultInjection, RequireAllFinishedThrowsRoundLimitError) {
  const BccInstance instance = small_instance(4);
  RunOptions options;
  options.require_all_finished = true;
  RoundEngine engine;
  EXPECT_THROW(engine.run(
                   instance, 1, [] { return std::make_unique<NeverFinishes>(); }, 3, options),
               RoundLimitError);
  // Without strict mode the same run reports all_finished = false instead.
  const RunResult r =
      engine.run(instance, 1, [] { return std::make_unique<NeverFinishes>(); }, 3);
  EXPECT_FALSE(r.all_finished);
}

TEST(ReplayVerification, FaultyRunsReplayBitIdentically) {
  const BccInstance instance = small_instance(8);
  FaultCounts counts;
  counts.flips = 2;
  const FaultPlan plan = FaultPlan::random(5, 8, 3, counts);
  const ReplayReport rep = verify_replay(instance, 2, boruvka_factory(),
                                         BoruvkaAlgorithm::max_rounds(8, 2),
                                         CoinSpec::none(), &plan);
  EXPECT_FALSE(rep.errored);
  EXPECT_TRUE(rep.deterministic);
  EXPECT_EQ(rep.digest_first, rep.digest_second);
}

TEST(ReplayVerification, DeterministicEvenWhenTheAlgorithmRejectsFaults) {
  // Flooding reads every inbox value, so a crash-induced silence makes it
  // throw; the thrown error is the run's outcome and must replay too.
  const BccInstance instance = small_instance(8);
  FaultPlan plan;
  plan.crash(0, 0);
  const ReplayReport rep = verify_replay(instance, 4, min_id_flood_factory(),
                                         MinIdFloodAlgorithm::rounds_needed(8),
                                         CoinSpec::none(), &plan);
  EXPECT_TRUE(rep.errored);
  EXPECT_TRUE(rep.deterministic);
}

TEST(BatchReport, OnePoisonedJobDoesNotCostTheSweep) {
  Rng rng(21);
  std::vector<BatchJob> jobs;
  for (unsigned i = 0; i < 6; ++i) {
    const BccInstance instance = BccInstance::kt1(random_gnp(8, 0.5, rng));
    BatchJob job{instance, boruvka_factory(), 2, BoruvkaAlgorithm::max_rounds(8, 2),
                 CoinSpec::none()};
    if (i == 2) job.faults.byzantine(0, 0, 0, /*bits=*/10);  // exceeds bandwidth: throws
    jobs.push_back(std::move(job));
  }

  const BatchReport report = BatchRunner(4).run_reported(jobs);
  EXPECT_EQ(report.num_ok, 5u);
  EXPECT_EQ(report.num_failed, 1u);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.jobs[2].status, JobStatus::kFailed);
  EXPECT_EQ(report.jobs[2].error_kind, "FaultInjectionError");
  for (unsigned i = 0; i < 6; ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(report.jobs[i].ok()) << "job " << i;
    EXPECT_GT(report.jobs[i].result.rounds_executed, 0u) << "job " << i;
  }

  // The same poisoned batch through the all-or-nothing API rethrows.
  EXPECT_THROW(BatchRunner(4).run(jobs), FaultInjectionError);
}

TEST(BatchReport, FaultyBatchesAreBitIdenticalAcrossThreadCounts) {
  Rng rng(31);
  std::vector<BatchJob> jobs;
  for (unsigned i = 0; i < 12; ++i) {
    const std::size_t n = 6 + (i % 4);
    BatchJob job{BccInstance::kt1(random_one_cycle(n, rng).to_graph()), boruvka_factory(), 2,
                 BoruvkaAlgorithm::max_rounds(n, 2), CoinSpec::none()};
    FaultCounts counts;
    counts.drops = i % 3;
    counts.flips = i % 2;
    job.faults = FaultPlan::random(1000 + i, n, 4, counts);
    jobs.push_back(std::move(job));
  }

  const BatchReport serial = BatchRunner(1).run_reported(jobs);
  const BatchReport parallel = BatchRunner(8).run_reported(jobs);
  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].status, parallel.jobs[i].status) << "job " << i;
    EXPECT_EQ(serial.jobs[i].error, parallel.jobs[i].error) << "job " << i;
    if (serial.jobs[i].ok() && parallel.jobs[i].ok()) {
      EXPECT_EQ(serial.jobs[i].result.transcript.digest(),
                parallel.jobs[i].result.transcript.digest())
          << "job " << i;
      EXPECT_EQ(serial.jobs[i].result.decision, parallel.jobs[i].result.decision) << "job " << i;
    }
  }
}

TEST(BatchReport, WatchdogTimesOutOneJobAndSparesTheRest) {
  Rng rng(41);
  std::vector<BatchJob> jobs;
  for (unsigned i = 0; i < 4; ++i) {
    BatchJob job{BccInstance::kt1(random_one_cycle(8, rng).to_graph()), boruvka_factory(), 2,
                 BoruvkaAlgorithm::max_rounds(8, 2), CoinSpec::none()};
    if (i == 1) job.deadline_ns = 1;  // expires at the first per-round check
    jobs.push_back(std::move(job));
  }

  const BatchReport report = BatchRunner(2).run_reported(jobs);
  EXPECT_EQ(report.jobs[1].status, JobStatus::kTimedOut);
  EXPECT_EQ(report.jobs[1].error_kind, "JobTimeoutError");
  EXPECT_EQ(report.num_timed_out, 1u);
  EXPECT_EQ(report.num_ok, 3u);
  for (unsigned i : {0u, 2u, 3u}) EXPECT_TRUE(report.jobs[i].ok()) << "job " << i;
}

TEST(BatchReport, TransientFaultRecoversAfterOneRetry) {
  Rng rng(51);
  const BccInstance instance = BccInstance::kt1(random_one_cycle(8, rng).to_graph());
  BatchJob job{instance, boruvka_factory(), 2, BoruvkaAlgorithm::max_rounds(8, 2),
               CoinSpec::none()};
  job.faults.byzantine(0, 0, 0, /*bits=*/10).set_transient();

  BatchPolicy policy;
  policy.max_retries = 1;
  const BatchReport report = BatchRunner(1).run_reported({job}, policy);
  ASSERT_TRUE(report.jobs[0].ok());
  EXPECT_EQ(report.jobs[0].attempts, 2u);
  // Attempt 1 runs fault-free, so the result matches an unfaulted run.
  RoundEngine engine;
  const RunResult clean = engine.run(instance, 2, boruvka_factory(), job.max_rounds);
  EXPECT_EQ(report.jobs[0].result.transcript.digest(), clean.transcript.digest());
}

TEST(BatchReport, PersistentFaultExhaustsItsRetryBudget) {
  Rng rng(61);
  BatchJob job{BccInstance::kt1(random_one_cycle(8, rng).to_graph()), boruvka_factory(), 2,
               BoruvkaAlgorithm::max_rounds(8, 2), CoinSpec::none()};
  // Not transient: the plan fires on every attempt, so every retry fails.
  job.faults.byzantine(0, 0, 0, /*bits=*/10);

  BatchPolicy policy;
  policy.max_retries = 2;
  const BatchReport report = BatchRunner(1).run_reported({job}, policy);
  EXPECT_EQ(report.jobs[0].status, JobStatus::kFailed);
  EXPECT_EQ(report.jobs[0].attempts, 3u);  // initial run + 2 retries

  // With no retry budget there is exactly one attempt.
  const BatchReport no_retry = BatchRunner(1).run_reported({job});
  EXPECT_EQ(no_retry.jobs[0].attempts, 1u);
}

TEST(FaultSweep, SmokeAndShape) {
  FaultSweepConfig config;
  config.n = 8;
  config.bandwidth = 5;
  config.seed = 17;
  config.max_faults = 1;
  config.trials = 1;
  config.threads = 2;
  const FaultBudgetReport report = sweep_fault_budget(config);

  // 3 algorithms x 3 kinds x (max_faults + 1) levels.
  EXPECT_EQ(report.points.size(), 18u);
  EXPECT_EQ(report.jobs_ok + report.jobs_failed + report.jobs_timed_out, 18u);
  for (const FaultLevelPoint& p : report.points) {
    EXPECT_EQ(p.correct + p.wrong + p.unfinished + p.errored, p.trials);
    if (p.faults == 0) {
      EXPECT_TRUE(p.all_correct()) << "fault-free level must be correct for "
                                   << fault_sweep_algorithm_name(p.algorithm);
    }
  }
  for (const auto algorithm : {FaultSweepAlgorithm::kMinIdFlood, FaultSweepAlgorithm::kBoruvka,
                               FaultSweepAlgorithm::kSketch}) {
    for (const auto kind :
         {FaultKind::kCrashStop, FaultKind::kDropBroadcast, FaultKind::kFlipBits}) {
      EXPECT_LE(report.budget(algorithm, kind), config.max_faults);
    }
  }
}

}  // namespace
}  // namespace bcclb
