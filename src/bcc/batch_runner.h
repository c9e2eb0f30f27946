// Parallel execution of independent BCC runs.
//
// The lower-bound experiments sweep thousands of *independent* instances
// (every crossing of an edge pair, every cycle structure, every set
// partition). BatchRunner fans a batch of such jobs across the one worker
// pool (parallel_for, common/parallel.h), in which every worker owns one
// reusable RoundEngine, and stores each result at its job's index — so
// serial and parallel execution produce bit-identical transcripts,
// decisions and bit counts in the same order, for any thread count.
// Determinism holds because jobs share no mutable state: randomness comes
// from per-job seeds or a read-only public-coin string, and nothing about
// scheduling feeds back into a run.
//
// Two failure disciplines:
//   run()          — exceptions thrown by a job are captured and rethrown on
//                    the calling thread for the lowest-indexed failing job,
//                    after all workers have drained (all-or-nothing).
//   run_reported() — every job gets a per-job JobStatus in a BatchReport;
//                    one poisoned job costs one slot, not the whole sweep.
//                    Supports a per-job wall-clock watchdog and an opt-in
//                    bounded retry for transient (injected-fault) failures.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bcc/round_engine.h"

namespace bcclb {

// Deduplication map over a batch keyed by content digest: jobs with equal
// keys are one computation. `unique` lists, in ascending order, the first
// index of every distinct key — the indices that actually execute — and
// `alias_of[i]` names the executed index whose result job i shares
// (alias_of[u] == u for executed indices). The plan is a pure function of
// the key sequence, so serial and parallel consumers shard identically.
// This is the serving scheduler's coalescing hook: concurrent identical
// requests in one drain batch cost one artifact build.
struct CoalescePlan {
  std::vector<std::size_t> unique;
  std::vector<std::size_t> alias_of;

  std::size_t num_coalesced() const { return alias_of.size() - unique.size(); }
};

CoalescePlan coalesce_by_key(std::span<const std::uint64_t> keys);

// One independent simulator run. The fault plan and watchdog fields default
// to "off", so pre-fault-layer brace initializers keep working unchanged.
struct BatchJob {
  BccInstance instance;
  AlgorithmFactory factory;
  unsigned bandwidth = 1;
  unsigned max_rounds = 0;
  CoinSpec coins{};
  FaultPlan faults{};               // empty = fault-free
  std::uint64_t deadline_ns = 0;    // per-job watchdog; 0 = policy default
  bool require_all_finished = false;
};

enum class JobStatus : std::uint8_t {
  kOk,        // result is valid
  kFailed,    // the run threw; error/error_kind describe the final attempt
  kTimedOut,  // the watchdog killed the run (JobTimeoutError)
};

const char* job_status_name(JobStatus status);

struct JobOutcome {
  JobStatus status = JobStatus::kOk;
  RunResult result;        // meaningful iff status == kOk
  std::string error;       // what() of the final failed attempt
  std::string error_kind;  // BcclbError::kind(), or the typeid-style fallback
  unsigned attempts = 0;   // executions, including retries
  std::uint64_t backoff_ns_total = 0;  // time slept between retries

  bool ok() const { return status == JobStatus::kOk; }
};

struct BatchReport {
  std::vector<JobOutcome> jobs;
  std::size_t num_ok = 0;
  std::size_t num_failed = 0;
  std::size_t num_timed_out = 0;

  bool all_ok() const { return num_ok == jobs.size(); }
};

// Failure policy for run_reported.
struct BatchPolicy {
  // Default per-job watchdog (overridden by a job's own deadline_ns); 0
  // disables.
  std::uint64_t job_timeout_ns = 0;
  // Extra attempts for jobs whose failure is transient (BcclbError::
  // transient(), i.e. an injected fault); transient FaultPlans are disabled
  // from attempt 1 on, so the retry re-executes fault-free.
  unsigned max_retries = 0;
  // Exponential backoff before retry k (1-based): base << (k-1), capped at
  // backoff_cap_ns, then jittered into [cap/2, cap] of that value by a hash
  // of (backoff_seed, job index, k). The jitter is seeded, never wall-clock,
  // so a replayed batch sleeps the exact same schedule. base == 0 keeps the
  // pre-backoff behaviour: retry immediately.
  std::uint64_t backoff_base_ns = 0;
  std::uint64_t backoff_cap_ns = 100'000'000;  // 100 ms
  std::uint64_t backoff_seed = 0;
};

// The delay run_reported sleeps before retry `retry` (1-based) of job `job`.
// Pure and deterministic in its arguments; exposed for tests and for callers
// that want to pre-compute a schedule.
std::uint64_t retry_backoff_ns(const BatchPolicy& policy, std::size_t job, unsigned retry);

class BatchRunner {
 public:
  // 0 threads = default_parallel_threads(). The pool is created per call
  // (the runs dwarf thread start-up for every sweep in the repository); the
  // object is just the configured width, so it is freely copyable and
  // shareable.
  explicit BatchRunner(unsigned num_threads = 0);

  unsigned num_threads() const { return threads_; }

  // Runs every job; results[i] is job i's result regardless of which worker
  // executed it or in what order. Rethrows the lowest-indexed job failure.
  std::vector<RunResult> run(const std::vector<BatchJob>& jobs) const;

  // Failure-isolating variant: every job reports its own status and the
  // batch always returns. report.jobs[i] is job i's outcome; valid results
  // of the other jobs survive one crashing job.
  BatchReport run_reported(const std::vector<BatchJob>& jobs,
                           const BatchPolicy& policy = {}) const;

  // Generic deterministic parallel-for over [0, count): `body(i)` must write
  // only to index-i slots of caller-owned storage. This is what engines use
  // for sweeps that are not plain simulator runs (two-party simulations,
  // crossing construction + run, signature extraction).
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body) const;

  // As for_each, but hands the body its worker's private RoundEngine so
  // simulator-heavy sweeps reuse buffers across jobs.
  void for_each_with_engine(
      std::size_t count,
      const std::function<void(std::size_t, RoundEngine&)>& body) const;

  // Coalesced fan-out: runs `body(i)` once per distinct key — for the first
  // index holding that key — in parallel, and returns the plan so the caller
  // can replicate results onto the aliased indices. Results are bit-identical
  // to calling body on every index iff body is a pure function of its job's
  // key (the contract request handlers satisfy: the key is a content digest
  // of the full request).
  CoalescePlan for_each_coalesced(std::span<const std::uint64_t> keys,
                                  const std::function<void(std::size_t)>& body) const;

 private:
  unsigned threads_;
};

}  // namespace bcclb
