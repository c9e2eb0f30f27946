#include "bcc/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/errors.h"
#include "common/parallel.h"

namespace bcclb {

CoalescePlan coalesce_by_key(std::span<const std::uint64_t> keys) {
  CoalescePlan plan;
  plan.alias_of.resize(keys.size());
  std::unordered_map<std::uint64_t, std::size_t> first;
  first.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto [it, inserted] = first.emplace(keys[i], i);
    plan.alias_of[i] = it->second;
    if (inserted) plan.unique.push_back(i);
  }
  return plan;
}

CoalescePlan BatchRunner::for_each_coalesced(
    std::span<const std::uint64_t> keys,
    const std::function<void(std::size_t)>& body) const {
  CoalescePlan plan = coalesce_by_key(keys);
  // `unique` is ascending, so index order (and therefore error order, should
  // the body throw) matches what running every index serially would produce.
  for_each(plan.unique.size(), [&](std::size_t j) { body(plan.unique[j]); });
  return plan;
}

BatchRunner::BatchRunner(unsigned num_threads)
    : threads_(num_threads == 0 ? default_parallel_threads() : num_threads) {}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimedOut: return "timed-out";
  }
  return "?";
}

void BatchRunner::for_each_with_engine(
    std::size_t count, const std::function<void(std::size_t, RoundEngine&)>& body) const {
  // One engine per worker, created on the worker's first job and reused for
  // every job it claims after that.
  std::vector<std::unique_ptr<RoundEngine>> engines(std::min<std::size_t>(threads_, count));
  parallel_for(count, threads_, [&](unsigned worker, std::size_t i) {
    std::unique_ptr<RoundEngine>& engine = engines[worker];
    if (!engine) engine = std::make_unique<RoundEngine>();
    body(i, *engine);
  });
}

void BatchRunner::for_each(std::size_t count,
                           const std::function<void(std::size_t)>& body) const {
  parallel_for(count, threads_, [&body](unsigned, std::size_t i) { body(i); });
}

std::uint64_t retry_backoff_ns(const BatchPolicy& policy, std::size_t job, unsigned retry) {
  if (policy.backoff_base_ns == 0 || retry == 0) return 0;
  // Saturating base << (retry - 1), then cap.
  const unsigned shift = retry - 1;
  std::uint64_t delay = policy.backoff_base_ns;
  if (shift >= 63 || delay > (UINT64_MAX >> shift)) {
    delay = UINT64_MAX;
  } else {
    delay <<= shift;
  }
  if (delay > policy.backoff_cap_ns) delay = policy.backoff_cap_ns;
  // Deterministic jitter: SplitMix64-style mix of (seed, job, retry) picks a
  // point in [delay/2, delay], decorrelating simultaneous retries without
  // consulting the clock.
  std::uint64_t x = policy.backoff_seed ^ 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t salt : {static_cast<std::uint64_t>(job) + 1,
                                   static_cast<std::uint64_t>(retry)}) {
    x += salt * 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  const std::uint64_t half = delay / 2;
  return half + (half == 0 ? 0 : x % (half + 1));
}

namespace {

RunOptions options_for(const BatchJob& job, const BatchPolicy& policy, unsigned attempt) {
  RunOptions options;
  options.coins = job.coins;
  if (!job.faults.empty()) options.faults = &job.faults;
  options.attempt = attempt;
  options.deadline_ns = job.deadline_ns != 0 ? job.deadline_ns : policy.job_timeout_ns;
  options.require_all_finished = job.require_all_finished;
  return options;
}

}  // namespace

std::vector<RunResult> BatchRunner::run(const std::vector<BatchJob>& jobs) const {
  std::vector<RunResult> results(jobs.size());
  for_each_with_engine(jobs.size(), [&](std::size_t i, RoundEngine& engine) {
    const BatchJob& job = jobs[i];
    results[i] = engine.run(job.instance, job.bandwidth, job.factory, job.max_rounds,
                            options_for(job, {}, 0));
  });
  return results;
}

BatchReport BatchRunner::run_reported(const std::vector<BatchJob>& jobs,
                                      const BatchPolicy& policy) const {
  BatchReport report;
  report.jobs.resize(jobs.size());
  // The body never throws: every per-attempt exception is folded into the
  // job's own outcome slot, so one poisoned job cannot sink the batch.
  for_each_with_engine(jobs.size(), [&](std::size_t i, RoundEngine& engine) {
    const BatchJob& job = jobs[i];
    JobOutcome& out = report.jobs[i];
    for (unsigned attempt = 0;; ++attempt) {
      out.attempts = attempt + 1;
      bool transient = false;
      try {
        out.result = engine.run(job.instance, job.bandwidth, job.factory, job.max_rounds,
                                options_for(job, policy, attempt));
        out.status = JobStatus::kOk;
        out.error.clear();
        out.error_kind.clear();
        return;
      } catch (const JobTimeoutError& e) {
        out.status = JobStatus::kTimedOut;
        out.error = e.what();
        out.error_kind = e.kind();
      } catch (const BcclbError& e) {
        out.status = JobStatus::kFailed;
        out.error = e.what();
        out.error_kind = e.kind();
        transient = e.transient();
      } catch (const std::exception& e) {
        out.status = JobStatus::kFailed;
        out.error = e.what();
        out.error_kind = "std::exception";
      }
      if (!transient || attempt >= policy.max_retries) return;
      // Bounded exponential backoff before the retry; the schedule is a pure
      // function of (policy, job index, retry number), so replays of this
      // batch sleep identically and tests can predict the exact delays.
      const std::uint64_t delay = retry_backoff_ns(policy, i, attempt + 1);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
        out.backoff_ns_total += delay;
      }
    }
  });
  for (const JobOutcome& out : report.jobs) {
    switch (out.status) {
      case JobStatus::kOk: ++report.num_ok; break;
      case JobStatus::kFailed: ++report.num_failed; break;
      case JobStatus::kTimedOut: ++report.num_timed_out; break;
    }
  }
  return report;
}

}  // namespace bcclb
