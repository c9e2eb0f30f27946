// Crash-recoverable experiment campaigns.
//
// The lower-bound sweeps are long-running and historically fire-and-forget:
// a crash at hour three lost everything. A Campaign is a named, seeded list
// of independent jobs (any engine sweep, rendered to a text artifact); the
// CampaignRunner executes them in deterministic index order through a
// BatchRunner pool and checkpoints per-job status + output digests to disk
// after every completed batch, via write-temp-then-rename snapshots
// (bcc/checkpoint.h). kill -9 mid-campaign therefore loses at most the
// in-flight batch: resuming re-runs only unfinished jobs and produces final
// artifacts bit-identical to an uninterrupted run — every job is a pure
// function of the campaign seed, so re-execution is replay.
//
// Resource guards make the runner degrade instead of dying:
//   - a memory budget (BCCLB_MEM_BUDGET or config) sheds worker parallelism
//     until the concurrently-resident engine footprints fit, and refuses —
//     with a typed ResourceBudgetError naming budget and footprint — only
//     jobs that cannot fit even alone;
//   - per-job deadlines reuse the round loop's watchdog (JobTimeoutError is
//     folded into the job's record, never the campaign's fate);
//   - an interrupt flag (the CLI's SIGINT/SIGTERM sig_atomic_t) is polled
//     between batches, flushing a final checkpoint before returning.
//
// The golden-digest store turns committed results into an enforced
// contract: a completed campaign writes golden.json (job name -> FNV-1a
// output digest); `bcclb campaign --verify` re-runs the standard campaign
// and diffs the digests, failing loudly on any divergence.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/env.h"

namespace bcclb {

// What a job body receives from the runner: how wide the job itself may go
// (inner BatchRunner width, already divided by the campaign's concurrency)
// and the watchdog budget to forward into RunOptions / BatchPolicy.
struct CampaignJobContext {
  unsigned threads = 1;
  std::uint64_t deadline_ns = 0;
};

struct CampaignJobResult {
  std::string output;          // the job's text artifact; its FNV-1a is the digest
  std::size_t peak_bytes = 0;  // observed footprint, for the report (optional)
};

// Job bodies must be deterministic in the campaign seed (thread width and
// deadline must not leak into `output`) — resume correctness depends on it.
using CampaignJobFn = std::function<CampaignJobResult(const CampaignJobContext&)>;

struct CampaignJob {
  std::string name;           // unique, stable, ^[A-Za-z0-9][A-Za-z0-9._-]*$
  std::size_t est_bytes = 0;  // planning footprint for the memory budget; 0 = negligible
  CampaignJobFn body;
};

struct Campaign {
  std::string name;  // same charset as job names
  std::uint64_t seed = 0;
  std::vector<CampaignJob> jobs;
};

enum class CampaignJobState : std::uint8_t {
  kPending,   // not executed (yet) — also: interrupted before its batch ran
  kDone,      // output + digest valid
  kFailed,    // body threw; error/error_kind hold the typed context
  kTimedOut,  // body threw JobTimeoutError (the PR 2 watchdog)
  kRefused,   // footprint exceeds the memory budget even at one worker
};

const char* campaign_job_state_name(CampaignJobState state);

struct CampaignJobRecord {
  CampaignJobState state = CampaignJobState::kPending;
  std::uint64_t digest = 0;        // FNV-1a of the output; valid iff kDone
  std::uint64_t wall_time_ns = 0;  // not part of any digest (nondeterministic)
  unsigned attempts = 0;           // executions across all runs of the campaign
  std::string error;               // what() for kFailed/kTimedOut/kRefused
  std::string error_kind;          // BcclbError::kind() or "std::exception"
  bool resumed = false;            // satisfied from the checkpoint, not re-run

  bool ok() const { return state == CampaignJobState::kDone; }
};

struct CampaignConfig {
  // Checkpoint + artifact directory; empty runs fully in memory (no
  // checkpoint, no files) — the mode `--verify` uses.
  std::string dir;
  unsigned threads = 0;                // 0 = BatchRunner::default_threads()
  std::uint64_t mem_budget_bytes = 0;  // 0 = BCCLB_MEM_BUDGET env, else unlimited
  std::uint64_t job_deadline_ns = 0;   // forwarded to every job's context
  // Resume from an existing checkpoint. A fresh run refuses to clobber a
  // directory that already holds one (CheckpointError); a resume refuses to
  // start without one.
  bool resume = false;
  // Stop cleanly after N completed batches, leaving a resumable checkpoint —
  // the deterministic stand-in for SIGKILL at a checkpoint boundary that the
  // kill-and-resume tests use. 0 = run to completion.
  unsigned stop_after_batches = 0;
  // Sleep between batches (after the checkpoint flush). An ops throttle for
  // shared machines; the kill-and-resume smoke test uses it to widen the
  // window in which a real SIGKILL can land. 0 = no delay.
  std::uint64_t inter_batch_delay_ns = 0;
  // Polled between batches; set by the CLI's SIGINT/SIGTERM handler. When it
  // becomes non-zero the runner flushes a checkpoint and returns with
  // interrupted = true instead of dying dirty.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

struct CampaignReport {
  std::vector<CampaignJobRecord> records;  // index-aligned with Campaign::jobs
  std::size_t num_done = 0;
  std::size_t num_failed = 0;
  std::size_t num_timed_out = 0;
  std::size_t num_refused = 0;
  std::size_t num_pending = 0;   // > 0 only after an interrupt / batch stop
  std::size_t resumed_jobs = 0;  // of num_done, how many came from the checkpoint
  bool interrupted = false;
  unsigned planned_workers = 0;            // concurrency after budget shedding
  std::uint64_t mem_budget_bytes = 0;      // resolved budget; 0 = unlimited

  bool all_done() const { return num_done == records.size(); }
};

// Largest worker count w <= max_workers such that the w largest job
// footprints fit the budget together (each worker may be resident in its
// heaviest job simultaneously). Jobs that alone exceed the budget are the
// caller's problem (they get refused) and must not be in `est_bytes`.
// budget_bytes == 0 means unlimited. Always returns >= 1. Pure, for tests.
unsigned plan_campaign_workers(std::vector<std::size_t> est_bytes, unsigned max_workers,
                               std::uint64_t budget_bytes);

// parse_mem_bytes (the BCCLB_MEM_BUDGET / --mem-budget syntax) moved to
// common/env.h so non-campaign consumers (artifact cache, tiled rank) parse
// budgets identically; re-exported here via the include below.

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config);

  // Executes (or resumes) the campaign. Throws CheckpointError for an
  // unusable directory or a corrupt / mismatched checkpoint; individual job
  // failures are folded into their records. On a complete run with a
  // directory, writes <dir>/campaign.txt (concatenated outputs, the
  // bit-identical final artifact) and <dir>/golden.json.
  CampaignReport run(const Campaign& campaign) const;

  const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
};

// The golden-digest regression store (results/golden.json).
struct GoldenStore {
  std::string campaign;
  std::uint64_t seed = 0;
  // Sorted by job name; the serialized form is canonical, so two stores with
  // equal digests serialize byte-identically.
  std::vector<std::pair<std::string, std::uint64_t>> digests;

  std::string to_json() const;
  static GoldenStore from_json(const std::string& text);  // throws CheckpointError
  static GoldenStore from_report(const Campaign& campaign, const CampaignReport& report);
};

struct GoldenMismatch {
  std::string job;
  std::string expected;  // digest hex, or "(absent)"
  std::string actual;
};

// Every job whose digest differs between the stores, plus jobs present in
// only one of them. Empty means the contract holds.
std::vector<GoldenMismatch> diff_golden(const GoldenStore& golden, const GoldenStore& fresh);

// The repository's standard campaign: one seeded job per core engine family
// (KT-0 star error, decision-rule optimization, KT-1 partition reduction,
// information bound, tightness upper bounds, fault budgets). This is what
// `bcclb campaign` runs and what results/golden.json certifies.
Campaign standard_campaign(std::uint64_t seed = 2019);

// Canonical locations inside a campaign directory.
std::string campaign_checkpoint_path(const std::string& dir);
std::string campaign_output_path(const std::string& dir, const std::string& job);
std::string campaign_golden_path(const std::string& dir);
std::string campaign_final_path(const std::string& dir);

}  // namespace bcclb
