// Determinism regression for BatchRunner: serial and parallel execution must
// be bit-identical — same transcripts, same decisions, same bit counts, in
// the same order — for any thread count, in both public- and private-coin
// modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bcc/algorithms/boruvka.h"
#include "bcc/algorithms/sketch_connectivity.h"
#include "bcc/batch_runner.h"
#include "common/parallel.h"
#include "common/random.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

std::vector<BatchJob> make_jobs(const PublicCoins* coins) {
  // A heterogeneous batch: deterministic Boruvka runs, public-coin sketch
  // runs, and private-coin sketch runs, over instances of varying size and
  // density (connected and disconnected).
  Rng rng(42);
  std::vector<BatchJob> jobs;
  for (std::size_t n : {4, 7, 10, 13}) {
    const BccInstance instance = BccInstance::kt1(random_gnp(n, 0.4, rng));
    jobs.push_back({instance, boruvka_factory(), 2, BoruvkaAlgorithm::max_rounds(n, 2),
                    CoinSpec::none()});
    jobs.push_back({instance, sketch_connectivity_factory(), 8,
                    SketchConnectivityAlgorithm::max_rounds(n, 8),
                    CoinSpec::public_coins(coins)});
    jobs.push_back({instance, sketch_connectivity_factory(), 8,
                    SketchConnectivityAlgorithm::max_rounds(n, 8),
                    CoinSpec::private_coins(/*seed=*/1000 + n)});
  }
  return jobs;
}

void expect_identical(const std::vector<RunResult>& a, const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rounds_executed, b[i].rounds_executed) << "job " << i;
    EXPECT_EQ(a[i].decision, b[i].decision) << "job " << i;
    EXPECT_EQ(a[i].all_finished, b[i].all_finished) << "job " << i;
    EXPECT_EQ(a[i].vertex_decisions, b[i].vertex_decisions) << "job " << i;
    EXPECT_EQ(a[i].labels, b[i].labels) << "job " << i;
    EXPECT_EQ(a[i].total_bits_broadcast, b[i].total_bits_broadcast) << "job " << i;
    EXPECT_EQ(a[i].stats.total_bits, b[i].stats.total_bits) << "job " << i;
    EXPECT_EQ(a[i].stats.rounds, b[i].stats.rounds) << "job " << i;
    ASSERT_EQ(a[i].transcript.num_vertices(), b[i].transcript.num_vertices()) << "job " << i;
    for (VertexId v = 0; v < a[i].transcript.num_vertices(); ++v) {
      EXPECT_EQ(a[i].transcript.sent_string(v), b[i].transcript.sent_string(v))
          << "job " << i << " vertex " << v;
    }
  }
}

TEST(BatchRunner, ParallelBitIdenticalToSerialForAnyThreadCount) {
  const PublicCoins coins(2026, 4096);
  const std::vector<BatchJob> jobs = make_jobs(&coins);

  // Serial reference: one engine, a plain loop, job order.
  std::vector<RunResult> serial;
  RoundEngine engine;
  for (const BatchJob& job : jobs) {
    serial.push_back(
        engine.run(job.instance, job.bandwidth, job.factory, job.max_rounds, job.coins));
  }

  for (unsigned threads : {1u, 2u, 8u}) {
    const BatchRunner runner(threads);
    EXPECT_EQ(runner.num_threads(), threads);
    expect_identical(serial, runner.run(jobs));
  }
}

TEST(BatchRunner, RepeatedParallelRunsAreStable) {
  const PublicCoins coins(7, 4096);
  const std::vector<BatchJob> jobs = make_jobs(&coins);
  const BatchRunner runner(8);
  expect_identical(runner.run(jobs), runner.run(jobs));
}

TEST(BatchRunner, ForEachVisitsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    const BatchRunner runner(threads);
    std::vector<int> visits(257, 0);
    runner.for_each(visits.size(), [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i], 1) << i;
  }
}

TEST(BatchRunner, ForEachWithEngineMatchesSerialRuns) {
  Rng rng(9);
  std::vector<BccInstance> instances;
  for (std::size_t i = 0; i < 16; ++i) {
    instances.push_back(BccInstance::kt1(random_gnp(6 + (i % 4), 0.5, rng)));
  }
  const unsigned cap = BoruvkaAlgorithm::max_rounds(9, 2);

  std::vector<std::uint64_t> serial_bits(instances.size());
  RoundEngine engine;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    serial_bits[i] = engine.run(instances[i], 2, boruvka_factory(), cap).total_bits_broadcast;
  }

  for (unsigned threads : {2u, 8u}) {
    const BatchRunner runner(threads);
    std::vector<std::uint64_t> parallel_bits(instances.size());
    runner.for_each_with_engine(instances.size(), [&](std::size_t i, RoundEngine& eng) {
      parallel_bits[i] = eng.run(instances[i], 2, boruvka_factory(), cap).total_bits_broadcast;
    });
    EXPECT_EQ(parallel_bits, serial_bits);
  }
}

TEST(BatchRunner, LowestIndexExceptionWinsAndPoolSurvives) {
  const BatchRunner runner(8);
  // Several jobs throw; the rethrown exception must be the lowest-indexed
  // one (matching what a serial loop would hit first).
  try {
    runner.for_each(64, [&](std::size_t i) {
      if (i == 11 || i == 3 || i == 60) {
        throw std::runtime_error("job " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 3");
  }
  // The runner is unaffected by the failed batch.
  std::vector<int> visits(8, 0);
  runner.for_each(visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(BatchRunner, EmptyBatchIsANoOp) {
  const BatchRunner runner(4);
  EXPECT_TRUE(runner.run({}).empty());
  runner.for_each(0, [](std::size_t) { FAIL() << "body must not run"; });
}

// Saves and restores BCCLB_THREADS around a test so the suite never leaks
// environment state into later tests (or the developer's shell expectations).
class ThreadsEnvGuard {
 public:
  ThreadsEnvGuard() {
    const char* current = std::getenv("BCCLB_THREADS");
    if (current != nullptr) saved_ = current;
  }
  ~ThreadsEnvGuard() {
    if (saved_.has_value()) {
      setenv("BCCLB_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("BCCLB_THREADS");
    }
  }

  void set(const char* value) { setenv("BCCLB_THREADS", value, 1); }
  void unset() { unsetenv("BCCLB_THREADS"); }

 private:
  std::optional<std::string> saved_;
};

TEST(DefaultParallelThreads, HonorsAValidOverride) {
  ThreadsEnvGuard env;
  env.set("12");
  EXPECT_EQ(default_parallel_threads(), 12u);
  env.set("1");
  EXPECT_EQ(default_parallel_threads(), 1u);
}

TEST(DefaultParallelThreads, ClampsHugeValues) {
  ThreadsEnvGuard env;
  env.set("300");
  EXPECT_EQ(default_parallel_threads(), 256u);
}

TEST(DefaultParallelThreads, IgnoresMalformedValues) {
  ThreadsEnvGuard env;
  env.unset();
  const unsigned fallback = default_parallel_threads();
  EXPECT_GE(fallback, 1u);

  // Non-numeric, trailing garbage, empty, zero, negative, and overflowing
  // values must all fall back rather than crash or wrap around.
  for (const char* bad : {"abc", "7x", "", " 8", "0", "-3", "99999999999999999999"}) {
    env.set(bad);
    EXPECT_EQ(default_parallel_threads(), fallback) << "BCCLB_THREADS='" << bad << "'";
  }
}

TEST(RetryBackoff, IsDeterministicBoundedAndDoubling) {
  BatchPolicy policy;
  policy.backoff_base_ns = 1'000'000;  // 1 ms
  policy.backoff_cap_ns = 16'000'000;
  policy.backoff_seed = 77;

  std::uint64_t previous_nominal = 0;
  for (unsigned retry = 1; retry <= 8; ++retry) {
    const std::uint64_t delay = retry_backoff_ns(policy, /*job=*/3, retry);
    // Same (policy, job, retry) -> same delay, always.
    EXPECT_EQ(delay, retry_backoff_ns(policy, 3, retry)) << retry;
    // Jittered into [nominal/2, nominal] where nominal doubles up to the cap.
    const std::uint64_t nominal =
        std::min(policy.backoff_cap_ns, policy.backoff_base_ns << (retry - 1));
    EXPECT_GE(delay, nominal / 2) << retry;
    EXPECT_LE(delay, nominal) << retry;
    EXPECT_GE(nominal, previous_nominal);
    previous_nominal = nominal;
  }
}

TEST(RetryBackoff, ZeroBaseMeansImmediateRetry) {
  BatchPolicy policy;  // backoff_base_ns defaults to 0
  policy.max_retries = 3;
  EXPECT_EQ(retry_backoff_ns(policy, 0, 1), 0u);
  EXPECT_EQ(retry_backoff_ns(policy, 5, 4), 0u);
  // retry 0 is the initial attempt: never a sleep, whatever the base.
  policy.backoff_base_ns = 1'000'000;
  EXPECT_EQ(retry_backoff_ns(policy, 0, 0), 0u);
}

TEST(RetryBackoff, JitterDecorrelatesJobsAndSeeds) {
  BatchPolicy policy;
  policy.backoff_base_ns = 1'000'000;
  policy.backoff_seed = 1;
  // With a 500k-wide jitter window, distinct jobs (and seeds) landing on the
  // exact same delay for all of retries 1..4 would defeat the point of
  // jitter: thundering-herd retries.
  bool jobs_differ = false;
  bool seeds_differ = false;
  BatchPolicy other = policy;
  other.backoff_seed = 2;
  for (unsigned retry = 1; retry <= 4; ++retry) {
    jobs_differ |= retry_backoff_ns(policy, 0, retry) != retry_backoff_ns(policy, 1, retry);
    seeds_differ |= retry_backoff_ns(policy, 0, retry) != retry_backoff_ns(other, 0, retry);
  }
  EXPECT_TRUE(jobs_differ);
  EXPECT_TRUE(seeds_differ);
}

TEST(RetryBackoff, SaturatesInsteadOfOverflowing) {
  BatchPolicy policy;
  policy.backoff_base_ns = UINT64_MAX / 2;
  policy.backoff_cap_ns = UINT64_MAX;
  // A shift that would overflow must clamp to the cap, not wrap to a tiny
  // (or zero) delay.
  const std::uint64_t delay = retry_backoff_ns(policy, 0, 40);
  EXPECT_GE(delay, policy.backoff_cap_ns / 2);
}

TEST(BatchReport, RetryExhaustionSurfacesLastErrorWithJobIndexIntact) {
  Rng rng(71);
  std::vector<BatchJob> jobs;
  for (std::size_t n : {6, 7, 8, 9}) {
    const BccInstance instance = BccInstance::kt1(random_gnp(n, 0.6, rng));
    jobs.push_back({instance, boruvka_factory(), 2, BoruvkaAlgorithm::max_rounds(n, 2),
                    CoinSpec::none()});
  }
  // Job 2 carries a persistent fault: the plan re-fires on every attempt, so
  // the retry budget (and its backoff schedule) is fully consumed.
  jobs[2].faults.byzantine(0, 0, 0, /*bits=*/10);

  BatchPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ns = 50'000;  // 50 us: real sleeps, negligible runtime
  policy.backoff_seed = 9;
  const BatchReport report = BatchRunner(2).run_reported(jobs, policy);

  EXPECT_EQ(report.first_failure(), 2u);
  EXPECT_FALSE(report.jobs[2].ok());
  EXPECT_EQ(report.jobs[2].attempts, 3u);  // initial + 2 retries
  EXPECT_FALSE(report.jobs[2].error.empty());
  EXPECT_FALSE(report.jobs[2].error_kind.empty());
  for (unsigned i : {0u, 1u, 3u}) {
    EXPECT_TRUE(report.jobs[i].ok()) << "job " << i;
    EXPECT_EQ(report.jobs[i].backoff_ns_total, 0u) << "job " << i;
  }
  // The recorded sleep is exactly the deterministic schedule, so a replayed
  // batch (same policy, same jobs) waits the same total.
  const std::uint64_t expected =
      retry_backoff_ns(policy, 2, 1) + retry_backoff_ns(policy, 2, 2);
  EXPECT_EQ(report.jobs[2].backoff_ns_total, expected);
  EXPECT_GT(expected, 0u);
}

TEST(Coalesce, PlanAliasesDuplicatesToTheFirstOccurrence) {
  const std::uint64_t keys[] = {10, 20, 10, 30, 20, 10};
  const CoalescePlan plan = coalesce_by_key(keys);
  EXPECT_EQ(plan.unique, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(plan.alias_of, (std::vector<std::size_t>{0, 1, 0, 3, 1, 0}));
  EXPECT_EQ(plan.num_coalesced(), 3u);
}

TEST(Coalesce, AllUniqueAndAllIdenticalExtremes) {
  const std::uint64_t distinct[] = {1, 2, 3};
  const CoalescePlan none = coalesce_by_key(distinct);
  EXPECT_EQ(none.unique.size(), 3u);
  EXPECT_EQ(none.num_coalesced(), 0u);

  const std::uint64_t same[] = {7, 7, 7, 7};
  const CoalescePlan all = coalesce_by_key(same);
  EXPECT_EQ(all.unique, (std::vector<std::size_t>{0}));
  EXPECT_EQ(all.num_coalesced(), 3u);

  const CoalescePlan empty = coalesce_by_key(std::span<const std::uint64_t>{});
  EXPECT_TRUE(empty.unique.empty());
  EXPECT_TRUE(empty.alias_of.empty());
  EXPECT_EQ(empty.num_coalesced(), 0u);
}

TEST(Coalesce, ForEachCoalescedExecutesEachKeyExactlyOnce) {
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < 40; ++i) keys.push_back(i % 7);
  std::vector<std::atomic<int>> executions(40);
  const CoalescePlan plan = BatchRunner(4).for_each_coalesced(
      keys, [&](std::size_t i) { executions[i].fetch_add(1); });
  ASSERT_EQ(plan.unique.size(), 7u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool is_first = i < 7;  // keys cycle 0..6, so first occurrences lead
    EXPECT_EQ(executions[i].load(), is_first ? 1 : 0) << "index " << i;
    EXPECT_EQ(plan.alias_of[i], i % 7) << "index " << i;
  }
}

}  // namespace
}  // namespace bcclb
