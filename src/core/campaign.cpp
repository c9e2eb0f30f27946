#include "core/campaign.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bcc/algorithms/boruvka.h"
#include "bcc/algorithms/two_cycle_adversaries.h"
#include "bcc/batch_runner.h"
#include "bcc/checkpoint.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "core/decision_optimizer.h"
#include "core/fault_tolerance.h"
#include "core/info_engine.h"
#include "core/kt0_engine.h"
#include "core/kt1_engine.h"
#include "core/tightness.h"
#include "graph/generators.h"
#include "partition/sampling.h"

namespace bcclb {

namespace {

constexpr std::string_view kCheckpointMagic = "bcclb-campaign-v1";

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  char buf[512];
  const int len = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (len >= 0 && len < static_cast<int>(sizeof(buf))) {
    out.append(buf, static_cast<std::size_t>(len));
  } else if (len >= 0) {
    std::string big(static_cast<std::size_t>(len) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, copy);
    big.resize(static_cast<std::size_t>(len));
    out += big;
  }
  va_end(copy);
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '.' || c == '_' || c == '-';
  });
}

void validate_campaign(const Campaign& campaign) {
  BCCLB_REQUIRE(valid_name(campaign.name), "campaign name must match [A-Za-z0-9][A-Za-z0-9._-]*");
  for (const CampaignJob& job : campaign.jobs) {
    BCCLB_REQUIRE(valid_name(job.name),
                  "job name '" + job.name + "' must match [A-Za-z0-9][A-Za-z0-9._-]*");
    BCCLB_REQUIRE(static_cast<bool>(job.body), "job '" + job.name + "' has no body");
  }
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < campaign.jobs.size(); ++j) {
      BCCLB_REQUIRE(campaign.jobs[i].name != campaign.jobs[j].name,
                    "duplicate job name '" + campaign.jobs[i].name + "'");
    }
  }
}

std::optional<CampaignJobState> parse_state(std::string_view token) {
  for (const CampaignJobState state :
       {CampaignJobState::kPending, CampaignJobState::kDone, CampaignJobState::kFailed,
        CampaignJobState::kTimedOut, CampaignJobState::kRefused}) {
    if (token == campaign_job_state_name(state)) return state;
  }
  return std::nullopt;
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t at = 0;
  while (at < line.size()) {
    const std::size_t space = line.find(' ', at);
    const std::size_t end = space == std::string_view::npos ? line.size() : space;
    if (end > at) tokens.push_back(line.substr(at, end - at));
    at = end + 1;
  }
  return tokens;
}

std::optional<std::uint64_t> parse_u64_token(std::string_view token) {
  if (token.empty() || token.front() < '0' || token.front() > '9') return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

[[noreturn]] void checkpoint_fail(const std::string& path, const std::string& why) {
  throw CheckpointError("checkpoint '" + path + "': " + why);
}

// Serializes the per-job state table. Wall times are recorded for operators;
// they never feed an output digest, so resumed runs stay bit-identical in
// their artifacts even though timings differ.
std::string serialize_checkpoint(const Campaign& campaign,
                                 const std::vector<CampaignJobRecord>& records) {
  std::string body{kCheckpointMagic};
  body += '\n';
  appendf(body, "campaign %s seed %llu jobs %zu\n", campaign.name.c_str(),
          static_cast<unsigned long long>(campaign.seed), campaign.jobs.size());
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    const CampaignJobRecord& rec = records[i];
    appendf(body, "job %zu %s %s %u %llu %s\n", i, campaign_job_state_name(rec.state),
            digest_hex(rec.digest).c_str(), rec.attempts,
            static_cast<unsigned long long>(rec.wall_time_ns), campaign.jobs[i].name.c_str());
  }
  return body;
}

// Parses and cross-checks a checkpoint body against the campaign being
// resumed: magic, name, seed, job count, and every job's name at its index
// must all match, or the snapshot describes some other campaign and resuming
// over it would silently mix results.
std::vector<CampaignJobRecord> parse_checkpoint(const std::string& path, const std::string& body,
                                                const Campaign& campaign) {
  std::vector<std::string_view> lines;
  std::size_t at = 0;
  while (at < body.size()) {
    const std::size_t nl = body.find('\n', at);
    if (nl == std::string::npos) checkpoint_fail(path, "truncated record (missing newline)");
    lines.push_back(std::string_view(body).substr(at, nl - at));
    at = nl + 1;
  }
  if (lines.size() < 2 || lines[0] != kCheckpointMagic) {
    checkpoint_fail(path, "not a bcclb campaign checkpoint");
  }
  const std::vector<std::string_view> header = split_tokens(lines[1]);
  if (header.size() != 6 || header[0] != "campaign" || header[2] != "seed" ||
      header[4] != "jobs") {
    checkpoint_fail(path, "malformed header");
  }
  const auto seed = parse_u64_token(header[3]);
  const auto jobs = parse_u64_token(header[5]);
  if (!seed || !jobs) checkpoint_fail(path, "malformed header");
  if (header[1] != campaign.name || *seed != campaign.seed ||
      *jobs != campaign.jobs.size() || lines.size() != 2 + campaign.jobs.size()) {
    checkpoint_fail(path, "snapshot describes a different campaign (name '" +
                              std::string(header[1]) + "', seed " + std::to_string(*seed) +
                              ", " + std::to_string(*jobs) + " jobs) — refusing to resume");
  }

  std::vector<CampaignJobRecord> records(campaign.jobs.size());
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    const std::vector<std::string_view> tokens = split_tokens(lines[2 + i]);
    if (tokens.size() != 7 || tokens[0] != "job") {
      checkpoint_fail(path, "malformed job record at line " + std::to_string(3 + i));
    }
    const auto index = parse_u64_token(tokens[1]);
    const auto state = parse_state(tokens[2]);
    const auto attempts = parse_u64_token(tokens[4]);
    const auto wall = parse_u64_token(tokens[5]);
    std::uint64_t digest = 0;
    if (!index || *index != i || !state || !parse_digest_hex(tokens[3], digest) || !attempts ||
        !wall) {
      checkpoint_fail(path, "malformed job record at line " + std::to_string(3 + i));
    }
    if (tokens[6] != campaign.jobs[i].name) {
      checkpoint_fail(path, "job " + std::to_string(i) + " is '" + std::string(tokens[6]) +
                                "' in the snapshot but '" + campaign.jobs[i].name +
                                "' in the campaign — refusing to resume");
    }
    CampaignJobRecord& rec = records[i];
    rec.state = *state;
    rec.digest = digest;
    rec.attempts = static_cast<unsigned>(*attempts);
    rec.wall_time_ns = *wall;
  }
  return records;
}

void execute_job(const CampaignJob& job, const CampaignJobContext& context,
                 CampaignJobRecord& rec, std::string& output) {
  const auto start = std::chrono::steady_clock::now();
  ++rec.attempts;
  try {
    CampaignJobResult result = job.body(context);
    output = std::move(result.output);
    rec.digest = fnv1a(output);
    rec.state = CampaignJobState::kDone;
    rec.error.clear();
    rec.error_kind.clear();
  } catch (const JobTimeoutError& e) {
    rec.state = CampaignJobState::kTimedOut;
    rec.error = e.what();
    rec.error_kind = e.kind();
  } catch (const BcclbError& e) {
    rec.state = CampaignJobState::kFailed;
    rec.error = e.what();
    rec.error_kind = e.kind();
  } catch (const std::exception& e) {
    rec.state = CampaignJobState::kFailed;
    rec.error = e.what();
    rec.error_kind = "std::exception";
  }
  rec.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
}

}  // namespace

const char* campaign_job_state_name(CampaignJobState state) {
  switch (state) {
    case CampaignJobState::kPending: return "pending";
    case CampaignJobState::kDone: return "done";
    case CampaignJobState::kFailed: return "failed";
    case CampaignJobState::kTimedOut: return "timed-out";
    case CampaignJobState::kRefused: return "refused";
  }
  return "?";
}

unsigned plan_campaign_workers(std::vector<std::size_t> est_bytes, unsigned max_workers,
                               std::uint64_t budget_bytes) {
  if (max_workers == 0) max_workers = 1;
  if (budget_bytes == 0 || est_bytes.empty()) return max_workers;
  // Worst case, the w workers are simultaneously resident in the w heaviest
  // jobs; find the largest w whose heaviest-w sum still fits.
  std::sort(est_bytes.begin(), est_bytes.end(), std::greater<>());
  unsigned workers = 1;
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < est_bytes.size() && k < max_workers; ++k) {
    sum += est_bytes[k];
    if (k > 0 && sum > budget_bytes) break;
    workers = static_cast<unsigned>(k + 1);
  }
  return workers;
}

std::string campaign_checkpoint_path(const std::string& dir) { return dir + "/checkpoint.bcclb"; }

std::string campaign_output_path(const std::string& dir, const std::string& job) {
  return dir + "/out/" + job + ".txt";
}

std::string campaign_golden_path(const std::string& dir) { return dir + "/golden.json"; }

std::string campaign_final_path(const std::string& dir) { return dir + "/campaign.txt"; }

CampaignRunner::CampaignRunner(CampaignConfig config) : config_(std::move(config)) {}

CampaignReport CampaignRunner::run(const Campaign& campaign) const {
  validate_campaign(campaign);

  CampaignReport report;
  report.records.resize(campaign.jobs.size());
  std::vector<std::string> outputs(campaign.jobs.size());

  report.mem_budget_bytes = config_.mem_budget_bytes;
  if (report.mem_budget_bytes == 0) {
    // BCCLB_THREADS precedent: a malformed env value is ignored, not trusted.
    if (const char* env = std::getenv("BCCLB_MEM_BUDGET")) {
      if (const auto parsed = parse_mem_bytes(env)) report.mem_budget_bytes = *parsed;
    }
  }
  const unsigned max_workers =
      config_.threads != 0 ? config_.threads : default_parallel_threads();

  const bool on_disk = !config_.dir.empty();
  const std::string ckpt_path = on_disk ? campaign_checkpoint_path(config_.dir) : std::string();
  if (on_disk) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir + "/out", ec);
    if (ec) {
      throw CheckpointError("cannot create campaign directory '" + config_.dir +
                            "': " + ec.message());
    }
    if (file_exists(ckpt_path)) {
      if (!config_.resume) {
        checkpoint_fail(ckpt_path,
                        "already exists — pass --resume to continue it, or use a fresh directory");
      }
      report.records = parse_checkpoint(ckpt_path, read_snapshot(ckpt_path), campaign);
      for (std::size_t i = 0; i < report.records.size(); ++i) {
        CampaignJobRecord& rec = report.records[i];
        if (rec.state == CampaignJobState::kDone) {
          // A finished job is only trusted if its artifact still hashes to
          // the checkpointed digest; anything else is corruption, and
          // silently re-running over it would hide that.
          const std::string path = campaign_output_path(config_.dir, campaign.jobs[i].name);
          outputs[i] = read_file(path);
          if (fnv1a(outputs[i]) != rec.digest) {
            checkpoint_fail(path, "output does not hash to its checkpointed digest " +
                                      digest_hex(rec.digest) + " — refusing to resume");
          }
          rec.resumed = true;
        } else {
          // Failed / timed-out / refused jobs are unfinished work: resume
          // re-runs them (deterministic failures will fail identically, but
          // timeouts and budget refusals can heal under new limits).
          rec.state = CampaignJobState::kPending;
          rec.error.clear();
          rec.error_kind.clear();
        }
      }
    } else if (config_.resume) {
      checkpoint_fail(ckpt_path, "does not exist — nothing to resume");
    }
  } else if (config_.resume) {
    throw CheckpointError("resume requires a campaign directory");
  }

  // Memory budget: refuse jobs that cannot fit even alone, and shed
  // parallelism until the concurrently-resident footprints fit.
  std::vector<std::size_t> fitting;
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    CampaignJobRecord& rec = report.records[i];
    if (rec.state != CampaignJobState::kPending) continue;
    const std::size_t est = campaign.jobs[i].est_bytes;
    if (report.mem_budget_bytes != 0 && est > report.mem_budget_bytes) {
      const ResourceBudgetError error(
          "job '" + campaign.jobs[i].name + "' refused: estimated footprint " +
          std::to_string(est) + " bytes exceeds the campaign memory budget of " +
          std::to_string(report.mem_budget_bytes) + " bytes (BCCLB_MEM_BUDGET)");
      rec.state = CampaignJobState::kRefused;
      rec.error = error.what();
      rec.error_kind = error.kind();
      continue;
    }
    fitting.push_back(est);
  }
  report.planned_workers = plan_campaign_workers(fitting, max_workers, report.mem_budget_bytes);

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    if (report.records[i].state == CampaignJobState::kPending) pending.push_back(i);
  }

  const BatchRunner pool(report.planned_workers);
  CampaignJobContext context;
  context.threads = std::max(1u, max_workers / std::max(1u, report.planned_workers));
  context.deadline_ns = config_.job_deadline_ns;

  // A flush whose bytes equal the last ones written, such as the final flush
  // after a completed last batch, is skipped. Every write still fsyncs
  // before its rename.
  std::string last_checkpoint;
  const auto flush_checkpoint = [&] {
    if (!on_disk) return;
    std::string bytes = serialize_checkpoint(campaign, report.records);
    if (bytes == last_checkpoint) return;
    write_snapshot_atomic(ckpt_path, bytes);
    last_checkpoint = std::move(bytes);
  };

  std::size_t at = 0;
  unsigned batches_done = 0;
  while (at < pending.size()) {
    if (config_.interrupt != nullptr && *config_.interrupt != 0) {
      report.interrupted = true;
      break;
    }
    if (config_.stop_after_batches != 0 && batches_done >= config_.stop_after_batches) {
      report.interrupted = true;
      break;
    }
    const std::size_t batch_end =
        std::min<std::size_t>(at + report.planned_workers, pending.size());
    pool.for_each(batch_end - at, [&](std::size_t k) {
      const std::size_t i = pending[at + k];
      execute_job(campaign.jobs[i], context, report.records[i], outputs[i]);
    });
    if (on_disk) {
      for (std::size_t k = at; k < batch_end; ++k) {
        const std::size_t i = pending[k];
        if (report.records[i].state == CampaignJobState::kDone) {
          write_file_atomic(campaign_output_path(config_.dir, campaign.jobs[i].name),
                            outputs[i]);
        }
      }
    }
    at = batch_end;
    ++batches_done;
    flush_checkpoint();
    if (config_.inter_batch_delay_ns != 0 && at < pending.size()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(config_.inter_batch_delay_ns));
    }
  }
  // Final flush even when no batch ran (empty campaign, interrupt before the
  // first batch, everything refused): the directory must always hold a
  // resumable manifest after run() returns.
  flush_checkpoint();

  for (const CampaignJobRecord& rec : report.records) {
    switch (rec.state) {
      case CampaignJobState::kPending: ++report.num_pending; break;
      case CampaignJobState::kDone:
        ++report.num_done;
        if (rec.resumed) ++report.resumed_jobs;
        break;
      case CampaignJobState::kFailed: ++report.num_failed; break;
      case CampaignJobState::kTimedOut: ++report.num_timed_out; break;
      case CampaignJobState::kRefused: ++report.num_refused; break;
    }
  }

  if (on_disk && report.all_done()) {
    // The bit-identical final artifacts: concatenated outputs in job order,
    // and the golden-digest store. Both are pure functions of the campaign
    // definition, never of scheduling, interrupts, or resume history.
    std::string final_text;
    for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
      appendf(final_text, "== %s\n", campaign.jobs[i].name.c_str());
      final_text += outputs[i];
      if (!outputs[i].empty() && outputs[i].back() != '\n') final_text += '\n';
    }
    write_file_atomic(campaign_final_path(config_.dir), final_text);
    write_file_atomic(campaign_golden_path(config_.dir),
                      GoldenStore::from_report(campaign, report).to_json());
  }
  return report;
}

std::string GoldenStore::to_json() const {
  std::string out = "{\n";
  appendf(out, "  \"campaign\": \"%s\",\n", campaign.c_str());
  appendf(out, "  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  out += "  \"jobs\": {\n";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    appendf(out, "    \"%s\": \"%s\"%s\n", digests[i].first.c_str(),
            digest_hex(digests[i].second).c_str(), i + 1 < digests.size() ? "," : "");
  }
  out += "  }\n}\n";
  return out;
}

namespace {

// Minimal scanner for the golden store's own canonical JSON (plus benign
// whitespace variation). Anything structurally off throws CheckpointError —
// a garbage golden store must fail verification loudly, not diff as empty.
struct JsonScanner {
  std::string_view text;
  std::size_t at = 0;

  void skip_ws() {
    while (at < text.size() && (text[at] == ' ' || text[at] == '\t' || text[at] == '\n' ||
                                text[at] == '\r')) {
      ++at;
    }
  }

  bool try_consume(char c) {
    skip_ws();
    if (at < text.size() && text[at] == c) {
      ++at;
      return true;
    }
    return false;
  }

  void consume(char c, const char* what) {
    if (!try_consume(c)) {
      throw CheckpointError(std::string("golden store: expected ") + what + " at offset " +
                            std::to_string(at));
    }
  }

  std::string string_value() {
    consume('"', "string");
    std::string out;
    while (at < text.size() && text[at] != '"') {
      if (text[at] == '\\' || text[at] == '\n') {
        throw CheckpointError("golden store: unsupported escape in string");
      }
      out += text[at++];
    }
    consume('"', "closing quote");
    return out;
  }

  std::uint64_t number_value() {
    skip_ws();
    const std::size_t start = at;
    while (at < text.size() && text[at] >= '0' && text[at] <= '9') ++at;
    const auto value = parse_u64_token(text.substr(start, at - start));
    if (!value) throw CheckpointError("golden store: malformed number");
    return *value;
  }
};

}  // namespace

GoldenStore GoldenStore::from_json(const std::string& text) {
  JsonScanner scan{text};
  GoldenStore store;
  scan.consume('{', "'{'");
  bool saw_campaign = false, saw_seed = false, saw_jobs = false;
  for (;;) {
    const std::string key = scan.string_value();
    scan.consume(':', "':'");
    if (key == "campaign") {
      store.campaign = scan.string_value();
      saw_campaign = true;
    } else if (key == "seed") {
      store.seed = scan.number_value();
      saw_seed = true;
    } else if (key == "jobs") {
      scan.consume('{', "'{'");
      if (!scan.try_consume('}')) {
        for (;;) {
          const std::string job = scan.string_value();
          scan.consume(':', "':'");
          std::uint64_t digest = 0;
          if (!parse_digest_hex(scan.string_value(), digest)) {
            throw CheckpointError("golden store: job '" + job + "' has a malformed digest");
          }
          store.digests.emplace_back(job, digest);
          if (!scan.try_consume(',')) break;
        }
        scan.consume('}', "'}'");
      }
      saw_jobs = true;
    } else {
      throw CheckpointError("golden store: unknown key '" + key + "'");
    }
    if (!scan.try_consume(',')) break;
  }
  scan.consume('}', "'}'");
  if (!saw_campaign || !saw_seed || !saw_jobs) {
    throw CheckpointError("golden store: missing campaign/seed/jobs");
  }
  std::sort(store.digests.begin(), store.digests.end());
  return store;
}

GoldenStore GoldenStore::from_report(const Campaign& campaign, const CampaignReport& report) {
  BCCLB_REQUIRE(report.records.size() == campaign.jobs.size(),
                "report does not belong to this campaign");
  GoldenStore store;
  store.campaign = campaign.name;
  store.seed = campaign.seed;
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    if (report.records[i].ok()) {
      store.digests.emplace_back(campaign.jobs[i].name, report.records[i].digest);
    }
  }
  std::sort(store.digests.begin(), store.digests.end());
  return store;
}

std::vector<GoldenMismatch> diff_golden(const GoldenStore& golden, const GoldenStore& fresh) {
  std::vector<GoldenMismatch> mismatches;
  std::size_t g = 0, f = 0;
  while (g < golden.digests.size() || f < fresh.digests.size()) {
    const bool take_golden =
        f >= fresh.digests.size() ||
        (g < golden.digests.size() && golden.digests[g].first < fresh.digests[f].first);
    const bool take_fresh =
        g >= golden.digests.size() ||
        (f < fresh.digests.size() && fresh.digests[f].first < golden.digests[g].first);
    if (take_golden) {
      mismatches.push_back({golden.digests[g].first, digest_hex(golden.digests[g].second),
                            "(absent)"});
      ++g;
    } else if (take_fresh) {
      mismatches.push_back({fresh.digests[f].first, "(absent)",
                            digest_hex(fresh.digests[f].second)});
      ++f;
    } else {
      if (golden.digests[g].second != fresh.digests[f].second) {
        mismatches.push_back({golden.digests[g].first, digest_hex(golden.digests[g].second),
                              digest_hex(fresh.digests[f].second)});
      }
      ++g;
      ++f;
    }
  }
  return mismatches;
}

namespace {

// Rough planning footprint of one engine run: the flat buffers RoundEngine
// keeps resident (peer table, outbox/inbox, staging) — the same quantities
// RunStats::peak_buffer_bytes observes after the fact.
std::size_t estimated_engine_bytes(std::size_t n, unsigned rounds) {
  return n * (n - 1) * sizeof(std::uint32_t) +
         (static_cast<std::size_t>(rounds) + 2) * n * sizeof(Message) + n * n;
}

}  // namespace

Campaign standard_campaign(std::uint64_t seed) {
  Campaign campaign;
  campaign.name = "standard";
  campaign.seed = seed;

  // KT-0 star-distribution error (kt0_engine, Theorem 3.5).
  campaign.jobs.push_back(
      {"kt0-star-n8-t1", estimated_engine_bytes(8, 4), [seed](const CampaignJobContext&) {
         const PublicCoins coins(seed, 4096);
         const StarErrorReport rep = star_error_experiment(
             8, 1, two_cycle_adversary_factory(AdversaryKind::kStateHash, 1, always_yes_rule()),
             &coins);
         CampaignJobResult out;
         appendf(out.output, "|S| = %zu, largest class |S'| = %zu (pigeonhole floor %.3f)\n",
                 rep.independent_set_size, rep.largest_class_size, rep.pigeonhole_floor);
         appendf(out.output, "forced error = %.6f (theory floor %.6f)\n", rep.forced_error,
                 rep.theory_floor);
         appendf(out.output, "crossings verified indistinguishable: %zu/%zu\n",
                 rep.crossings_verified, rep.crossings_checked);
         return out;
       }});

  // Greedy decision-rule optimization (decision_optimizer, E17).
  campaign.jobs.push_back(
      {"decision-rules-n8-t1", estimated_engine_bytes(8, 4), [seed](const CampaignJobContext&) {
         const PublicCoins coins(seed, 4096);
         const DecisionOptimizerReport rep = optimize_decision_rule(
             8, 1, two_cycle_adversary_factory(AdversaryKind::kEcho, 1, always_yes_rule()),
             &coins);
         CampaignJobResult out;
         appendf(out.output, "states = %zu, voting NO = %zu\n", rep.num_states,
                 rep.states_voting_no);
         appendf(out.output, "greedy-optimized error = %.6f (always-YES = %.2f)\n",
                 rep.greedy_error, rep.always_yes_error);
         return out;
       }});

  // Exact mutual-information bound (info_engine, Theorem 4.5).
  campaign.jobs.push_back(
      {"info-n7", estimated_engine_bytes(7, 8), [](const CampaignJobContext&) {
         const InfoReport rep = partition_comp_information(7, 1.0);
         CampaignJobResult out;
         appendf(out.output, "H(PA) = %.3f bits, realized error = %.3f\n", rep.h_pa,
                 rep.realized_error);
         appendf(out.output, "I(PA; Pi) = %.3f >= (1-eps)H - 1 = %.3f\n",
                 rep.mutual_information, rep.fano_floor);
         appendf(out.output, "implied BCC(1) ConnectedComponents rounds >= %.3f\n",
                 rep.implied_bcc_rounds);
         return out;
       }});

  // Figure 2 pipeline: partitions -> connectivity -> join (kt1_engine +
  // reduction).
  campaign.jobs.push_back(
      {"kt1-reduce-n10", estimated_engine_bytes(40, 64), [seed](const CampaignJobContext&) {
         Rng rng(seed);
         const SetPartition pa = uniform_partition(10, rng);
         const SetPartition pb = uniform_partition(10, rng);
         const PartitionViaBcc rep = solve_partition_via_bcc(pa, pb, boruvka_factory(), 6, 800);
         CampaignJobResult out;
         appendf(out.output, "PA      = %s\nPB      = %s\n", pa.to_string().c_str(),
                 pb.to_string().c_str());
         appendf(out.output, "PA v PB = %s\n", pa.join(pb).to_string().c_str());
         appendf(out.output, "BCC decided %s in %u rounds, %llu protocol bits\n",
                 rep.sim.decision ? "CONNECTED" : "DISCONNECTED", rep.sim.bcc_rounds,
                 static_cast<unsigned long long>(rep.sim.total_bits()));
         appendf(out.output, "recovered join %s the lattice join\n",
                 rep.recovered_join && *rep.recovered_join == rep.expected_join ? "matches"
                                                                               : "MISMATCHES");
         return out;
       }});

  // Tightness upper bounds on the hard input (tightness, E9).
  campaign.jobs.push_back(
      {"tightness-n24-b5", estimated_engine_bytes(24, 64), [seed](const CampaignJobContext&) {
         Rng rng(seed);
         const UpperBoundPoint p =
             measure_upper_bounds(random_one_cycle(24, rng).to_graph(), 5, "one-cycle", seed);
         CampaignJobResult out;
         appendf(out.output, "one-cycle n=%zu b=%u:\n", p.n, p.bandwidth);
         if (p.flood_ran) {
           appendf(out.output, "  flooding : %u rounds (%s)\n", p.flood_rounds,
                   p.flood_correct ? "ok" : "WRONG");
         }
         appendf(out.output, "  boruvka  : %u rounds (%s)\n", p.boruvka_rounds,
                 p.boruvka_correct ? "ok" : "WRONG");
         if (p.sketch_ran) {
           appendf(out.output, "  sketches : %u rounds, %llu bits/vertex (%s)\n",
                   p.sketch_rounds,
                   static_cast<unsigned long long>(p.sketch_bits_per_vertex),
                   p.sketch_correct ? "ok" : "MC-miss");
         }
         appendf(out.output, "  lower-bound reference log2(n)/b = %.2f\n", p.lower_bound_rounds);
         return out;
       }});

  // Fault budgets of the upper-bound algorithms (fault_tolerance, E20). The
  // only job wide enough to use its inner thread allowance, and the one that
  // forwards the campaign deadline into the PR 2 watchdog.
  campaign.jobs.push_back(
      {"faults-n12-b6", 16 * estimated_engine_bytes(12, 32),
       [seed](const CampaignJobContext& context) {
         FaultSweepConfig config;
         config.n = 12;
         config.bandwidth = 6;
         config.seed = seed;
         config.max_faults = 2;
         config.trials = 2;
         config.threads = context.threads;
         config.job_deadline_ns = context.deadline_ns;
         const FaultBudgetReport rep = sweep_fault_budget(config);
         CampaignJobResult out;
         for (const FaultSweepAlgorithm algorithm :
              {FaultSweepAlgorithm::kMinIdFlood, FaultSweepAlgorithm::kBoruvka,
               FaultSweepAlgorithm::kSketch}) {
           appendf(out.output, "%-8s crash=%u drop=%u flip=%u\n",
                   fault_sweep_algorithm_name(algorithm),
                   rep.budget(algorithm, FaultKind::kCrashStop),
                   rep.budget(algorithm, FaultKind::kDropBroadcast),
                   rep.budget(algorithm, FaultKind::kFlipBits));
         }
         appendf(out.output, "jobs: %zu ok, %zu failed, %zu timed out\n", rep.jobs_ok,
                 rep.jobs_failed, rep.jobs_timed_out);
         return out;
       }});

  return campaign;
}

}  // namespace bcclb
