// CampaignRunner: crash-recoverable checkpointed campaigns.
//
// The load-bearing properties, each pinned here:
//   - kill at any checkpoint boundary + resume == uninterrupted run,
//     bit-for-bit in campaign.txt and golden.json;
//   - corrupt snapshots and tampered artifacts are rejected with a typed
//     CheckpointError, never silently resumed;
//   - the memory budget sheds worker parallelism before refusing jobs, and
//     a refused job carries a ResourceBudgetError naming budget + footprint;
//   - job failures (typed errors, timeouts) cost their slot, not the
//     campaign, and resume re-runs exactly the unfinished jobs.
#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "bcc/checkpoint.h"
#include "common/errors.h"

namespace bcclb {
namespace {

std::string test_dir() {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "bcclb_campaign_" + info->test_suite_name() + "_" +
                    info->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string raw_read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void raw_write(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A fast synthetic campaign: five jobs whose outputs are pure functions of
// the seed, mirroring how every real engine job behaves.
Campaign synthetic_campaign(std::uint64_t seed, std::size_t jobs = 5) {
  Campaign campaign;
  campaign.name = "synthetic";
  campaign.seed = seed;
  for (std::size_t j = 0; j < jobs; ++j) {
    campaign.jobs.push_back(
        {"job-" + std::to_string(j), 1024, [seed, j](const CampaignJobContext&) {
           CampaignJobResult out;
           out.output = "job " + std::to_string(j) + " of seed " + std::to_string(seed) +
                        " computed " + std::to_string(seed * 31 + j * 7) + "\n";
           return out;
         }});
  }
  return campaign;
}

TEST(Campaign, FreshRunWritesArtifactsCheckpointAndGolden) {
  const std::string dir = test_dir();
  CampaignConfig config;
  config.dir = dir;
  config.threads = 2;
  const Campaign campaign = synthetic_campaign(7);
  const CampaignReport report = CampaignRunner(config).run(campaign);

  EXPECT_TRUE(report.all_done());
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.num_done, 5u);
  EXPECT_TRUE(file_exists(campaign_checkpoint_path(dir)));
  EXPECT_TRUE(file_exists(campaign_final_path(dir)));
  EXPECT_TRUE(file_exists(campaign_golden_path(dir)));
  for (const CampaignJob& job : campaign.jobs) {
    EXPECT_TRUE(file_exists(campaign_output_path(dir, job.name))) << job.name;
  }
  // Per-job artifacts are byte-exact and hash to the recorded digests.
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    const std::string bytes = raw_read(campaign_output_path(dir, campaign.jobs[i].name));
    EXPECT_EQ(fnv1a(bytes), report.records[i].digest);
  }
}

TEST(Campaign, InMemoryRunProducesSameDigestsAsOnDisk) {
  const std::string dir = test_dir();
  CampaignConfig on_disk;
  on_disk.dir = dir;
  CampaignConfig in_memory;  // empty dir = no checkpoint, no files
  const Campaign campaign = synthetic_campaign(11);
  const CampaignReport a = CampaignRunner(on_disk).run(campaign);
  const CampaignReport b = CampaignRunner(in_memory).run(campaign);
  ASSERT_TRUE(a.all_done());
  ASSERT_TRUE(b.all_done());
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    EXPECT_EQ(a.records[i].digest, b.records[i].digest) << i;
  }
}

TEST(Campaign, StopAtEveryCheckpointBoundaryThenResumeIsBitIdentical) {
  // Reference: uninterrupted run.
  const std::string base = test_dir();
  const Campaign campaign = synthetic_campaign(13);
  CampaignConfig ref_config;
  ref_config.dir = base + "/ref";
  ref_config.threads = 1;  // batch per job: every boundary is a kill point
  ASSERT_TRUE(CampaignRunner(ref_config).run(campaign).all_done());
  const std::string ref_final = raw_read(campaign_final_path(ref_config.dir));
  const std::string ref_golden = raw_read(campaign_golden_path(ref_config.dir));
  ASSERT_FALSE(ref_final.empty());

  for (unsigned stop_after = 1; stop_after <= 4; ++stop_after) {
    const std::string dir = base + "/stop" + std::to_string(stop_after);
    CampaignConfig interrupted;
    interrupted.dir = dir;
    interrupted.threads = 1;
    interrupted.stop_after_batches = stop_after;
    const CampaignReport first = CampaignRunner(interrupted).run(campaign);
    EXPECT_TRUE(first.interrupted);
    EXPECT_EQ(first.num_done, stop_after);
    EXPECT_EQ(first.num_pending, campaign.jobs.size() - stop_after);
    EXPECT_FALSE(file_exists(campaign_final_path(dir)));  // incomplete: no final artifact

    CampaignConfig resume;
    resume.dir = dir;
    resume.threads = 1;
    resume.resume = true;
    const CampaignReport second = CampaignRunner(resume).run(campaign);
    EXPECT_TRUE(second.all_done());
    EXPECT_EQ(second.resumed_jobs, stop_after);  // only unfinished jobs re-ran
    EXPECT_EQ(raw_read(campaign_final_path(dir)), ref_final) << "stop_after " << stop_after;
    EXPECT_EQ(raw_read(campaign_golden_path(dir)), ref_golden) << "stop_after " << stop_after;
  }
}

TEST(Campaign, InterruptFlagStopsBetweenBatchesAndFlushesCheckpoint) {
  const std::string dir = test_dir();
  volatile std::sig_atomic_t flag = 1;  // "signal already delivered"
  CampaignConfig config;
  config.dir = dir;
  config.interrupt = &flag;
  const Campaign campaign = synthetic_campaign(17);
  const CampaignReport report = CampaignRunner(config).run(campaign);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.num_pending, campaign.jobs.size());
  // The dirty-exit guarantee: a resumable manifest exists even though no
  // batch ever ran.
  ASSERT_TRUE(file_exists(campaign_checkpoint_path(dir)));

  flag = 0;
  CampaignConfig resume;
  resume.dir = dir;
  resume.resume = true;
  resume.interrupt = &flag;
  EXPECT_TRUE(CampaignRunner(resume).run(campaign).all_done());
}

TEST(Campaign, FreshRunRefusesToClobberExistingCheckpoint) {
  const std::string dir = test_dir();
  CampaignConfig config;
  config.dir = dir;
  const Campaign campaign = synthetic_campaign(19);
  ASSERT_TRUE(CampaignRunner(config).run(campaign).all_done());
  EXPECT_THROW(CampaignRunner(config).run(campaign), CheckpointError);
}

TEST(Campaign, ResumeWithoutCheckpointIsRefused) {
  const std::string dir = test_dir();
  CampaignConfig config;
  config.dir = dir;
  config.resume = true;
  EXPECT_THROW(CampaignRunner(config).run(synthetic_campaign(23)), CheckpointError);

  CampaignConfig memory_resume;
  memory_resume.resume = true;
  EXPECT_THROW(CampaignRunner(memory_resume).run(synthetic_campaign(23)), CheckpointError);
}

TEST(Campaign, TruncatedCheckpointIsRejectedNotResumed) {
  const std::string dir = test_dir();
  CampaignConfig config;
  config.dir = dir;
  config.stop_after_batches = 1;
  config.threads = 1;
  const Campaign campaign = synthetic_campaign(29);
  ASSERT_TRUE(CampaignRunner(config).run(campaign).interrupted);

  const std::string ckpt = campaign_checkpoint_path(dir);
  const std::string raw = raw_read(ckpt);
  raw_write(ckpt, raw.substr(0, raw.size() / 2));

  CampaignConfig resume;
  resume.dir = dir;
  resume.resume = true;
  try {
    CampaignRunner(resume).run(campaign);
    FAIL() << "truncated checkpoint was resumed";
  } catch (const CheckpointError& e) {
    EXPECT_STREQ(e.kind(), "CheckpointError");
  }
}

TEST(Campaign, GarbageCheckpointIsRejectedNotResumed) {
  const std::string dir = test_dir();
  std::filesystem::create_directories(dir + "/out");
  const std::string ckpt = campaign_checkpoint_path(dir);
  raw_write(ckpt, "not a checkpoint at all\n");

  CampaignConfig resume;
  resume.dir = dir;
  resume.resume = true;
  const Campaign campaign = synthetic_campaign(31);
  EXPECT_THROW(CampaignRunner(resume).run(campaign), CheckpointError);

  // Padding rewritten under a valid trailer is refused too: fields are
  // separated by exactly one space.
  CampaignConfig config;
  config.dir = dir;
  config.stop_after_batches = 1;
  config.threads = 1;
  std::filesystem::remove(ckpt);
  ASSERT_TRUE(CampaignRunner(config).run(campaign).interrupted);
  const std::string clean = read_snapshot(ckpt);
  const std::size_t job0 = clean.find("\njob 0 ") + 1;
  ASSERT_NE(job0, 0u);
  const std::string rewrites[] = {
      std::string(clean).replace(job0, 5, "job 0  "),  // doubled space
      std::string(clean).insert(job0, " "),           // leading space
  };
  for (const std::string& body : rewrites) {
    write_snapshot_atomic(ckpt, body);
    EXPECT_THROW(CampaignRunner(resume).run(campaign), CheckpointError) << body;
  }
  write_snapshot_atomic(ckpt, clean);
  EXPECT_TRUE(CampaignRunner(resume).run(campaign).all_done());
}

TEST(Campaign, TamperedOutputArtifactIsRejectedNotResumed) {
  const std::string dir = test_dir();
  CampaignConfig config;
  config.dir = dir;
  config.stop_after_batches = 2;
  config.threads = 1;
  const Campaign campaign = synthetic_campaign(37);
  ASSERT_TRUE(CampaignRunner(config).run(campaign).interrupted);

  // Flip a byte in a finished job's artifact; its checkpointed digest no
  // longer matches, so resume must refuse rather than splice corrupt output
  // into "bit-identical" final artifacts.
  const std::string artifact = campaign_output_path(dir, campaign.jobs[0].name);
  std::string bytes = raw_read(artifact);
  ASSERT_FALSE(bytes.empty());
  bytes[0] ^= 0x01;
  raw_write(artifact, bytes);

  CampaignConfig resume;
  resume.dir = dir;
  resume.resume = true;
  try {
    CampaignRunner(resume).run(campaign);
    FAIL() << "tampered artifact was resumed";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos) << e.what();
  }
}

TEST(Campaign, CheckpointOfDifferentCampaignIsRefused) {
  const std::string dir = test_dir();
  CampaignConfig config;
  config.dir = dir;
  config.stop_after_batches = 1;
  config.threads = 1;
  ASSERT_TRUE(CampaignRunner(config).run(synthetic_campaign(41)).interrupted);

  CampaignConfig resume;
  resume.dir = dir;
  resume.resume = true;
  // Same shape, different seed — the snapshot describes different jobs.
  EXPECT_THROW(CampaignRunner(resume).run(synthetic_campaign(42)), CheckpointError);
  // Different job list length.
  EXPECT_THROW(CampaignRunner(resume).run(synthetic_campaign(41, 3)), CheckpointError);
}

TEST(Campaign, FailedAndTimedOutJobsAreIsolatedAndRerunOnResume) {
  const std::string dir = test_dir();
  auto fail_first_time = std::make_shared<std::atomic<int>>(0);
  Campaign campaign;
  campaign.name = "mixed";
  campaign.seed = 1;
  campaign.jobs.push_back({"ok", 0, [](const CampaignJobContext&) {
                             return CampaignJobResult{"fine\n", 0};
                           }});
  campaign.jobs.push_back({"flaky", 0, [fail_first_time](const CampaignJobContext&) {
                             if (fail_first_time->fetch_add(1) == 0) {
                               throw BandwidthViolationError("injected", {0, 3, 2});
                             }
                             return CampaignJobResult{"recovered\n", 0};
                           }});
  campaign.jobs.push_back({"slow", 0, [fail_first_time](const CampaignJobContext&) {
                             if (fail_first_time->load() <= 1) {
                               throw JobTimeoutError("deadline expired");
                             }
                             return CampaignJobResult{"fast now\n", 0};
                           }});

  CampaignConfig config;
  config.dir = dir;
  config.threads = 1;
  const CampaignReport first = CampaignRunner(config).run(campaign);
  EXPECT_EQ(first.num_done, 1u);
  EXPECT_EQ(first.num_failed, 1u);
  EXPECT_EQ(first.num_timed_out, 1u);
  EXPECT_EQ(first.records[1].state, CampaignJobState::kFailed);
  EXPECT_EQ(first.records[1].error_kind, "BandwidthViolationError");
  EXPECT_EQ(first.records[2].state, CampaignJobState::kTimedOut);
  EXPECT_EQ(first.records[2].error_kind, "JobTimeoutError");
  EXPECT_FALSE(file_exists(campaign_final_path(dir)));

  // Resume re-runs exactly the two unfinished jobs; the flaky ones heal.
  CampaignConfig resume;
  resume.dir = dir;
  resume.threads = 1;
  resume.resume = true;
  const CampaignReport second = CampaignRunner(resume).run(campaign);
  EXPECT_TRUE(second.all_done());
  EXPECT_EQ(second.resumed_jobs, 1u);
  EXPECT_EQ(second.records[1].attempts, 2u);
  EXPECT_TRUE(file_exists(campaign_final_path(dir)));
}

TEST(CampaignBudget, PlanShedsWorkersBeforeRefusing) {
  // Unlimited budget: full width.
  EXPECT_EQ(plan_campaign_workers({100, 100, 100}, 8, 0), 8u);
  // Budget fits exactly two of the heaviest jobs side by side.
  EXPECT_EQ(plan_campaign_workers({600, 400, 100}, 8, 1000), 2u);
  // Budget below two heaviest: shed to one worker — never refuse here.
  EXPECT_EQ(plan_campaign_workers({600, 400, 100}, 8, 700), 1u);
  // Everything fits: width bounded by max_workers, then by job count.
  EXPECT_EQ(plan_campaign_workers({10, 10, 10}, 2, 1000), 2u);
  EXPECT_EQ(plan_campaign_workers({10, 10}, 8, 1000), 2u);
  // Degenerate inputs.
  EXPECT_EQ(plan_campaign_workers({}, 4, 100), 4u);
  EXPECT_EQ(plan_campaign_workers({50}, 0, 100), 1u);
}

TEST(CampaignBudget, OversizedJobIsRefusedWithTypedErrorNamingBudgetAndFootprint) {
  const std::string dir = test_dir();
  Campaign campaign = synthetic_campaign(43, 3);
  campaign.jobs[1].est_bytes = 1 << 20;  // 1 MiB against a 4 KiB budget

  CampaignConfig config;
  config.dir = dir;
  config.threads = 4;
  config.mem_budget_bytes = 4096;
  const CampaignReport report = CampaignRunner(config).run(campaign);

  EXPECT_EQ(report.num_done, 2u);
  EXPECT_EQ(report.num_refused, 1u);
  const CampaignJobRecord& refused = report.records[1];
  EXPECT_EQ(refused.state, CampaignJobState::kRefused);
  EXPECT_EQ(refused.error_kind, "ResourceBudgetError");
  EXPECT_NE(refused.error.find(std::to_string(1 << 20)), std::string::npos) << refused.error;
  EXPECT_NE(refused.error.find("4096"), std::string::npos) << refused.error;
  // The two 1 KiB jobs still fit the 4 KiB budget side by side.
  EXPECT_EQ(report.planned_workers, 2u);
  // Refusal is not completion: no final artifacts.
  EXPECT_FALSE(file_exists(campaign_final_path(dir)));
}

TEST(CampaignBudget, ParseMemBytesIsStrict) {
  EXPECT_EQ(parse_mem_bytes("4096"), std::optional<std::uint64_t>(4096));
  EXPECT_EQ(parse_mem_bytes("2K"), std::optional<std::uint64_t>(2048));
  EXPECT_EQ(parse_mem_bytes("3M"), std::optional<std::uint64_t>(3ULL << 20));
  EXPECT_EQ(parse_mem_bytes("1G"), std::optional<std::uint64_t>(1ULL << 30));
  EXPECT_FALSE(parse_mem_bytes(nullptr).has_value());
  EXPECT_FALSE(parse_mem_bytes("").has_value());
  EXPECT_FALSE(parse_mem_bytes("-1").has_value());
  EXPECT_FALSE(parse_mem_bytes("4096x").has_value());
  EXPECT_FALSE(parse_mem_bytes("K").has_value());
  EXPECT_FALSE(parse_mem_bytes("1KB").has_value());
  EXPECT_FALSE(parse_mem_bytes(" 1").has_value());
  EXPECT_FALSE(parse_mem_bytes("99999999999999999999999").has_value());
  EXPECT_FALSE(parse_mem_bytes("999999999999G").has_value());  // overflow via suffix
}

TEST(Golden, StoreRoundTripsThroughJson) {
  GoldenStore store;
  store.campaign = "synthetic";
  store.seed = 99;
  store.digests = {{"alpha", 0x1111222233334444ULL}, {"beta", 0xaaaabbbbccccddddULL}};
  const GoldenStore parsed = GoldenStore::from_json(store.to_json());
  EXPECT_EQ(parsed.campaign, store.campaign);
  EXPECT_EQ(parsed.seed, store.seed);
  EXPECT_EQ(parsed.digests, store.digests);
  EXPECT_TRUE(diff_golden(store, parsed).empty());
}

TEST(Golden, MalformedJsonThrowsCheckpointError) {
  EXPECT_THROW(GoldenStore::from_json(""), CheckpointError);
  EXPECT_THROW(GoldenStore::from_json("{}"), CheckpointError);
  EXPECT_THROW(GoldenStore::from_json("{\"campaign\": \"x\"}"), CheckpointError);
  EXPECT_THROW(GoldenStore::from_json("{\"campaign\": \"x\", \"seed\": 1, \"jobs\": {\"a\": "
                                      "\"nothex\"}}"),
               CheckpointError);
}

TEST(Golden, DiffNamesEveryDivergenceAndAbsence) {
  GoldenStore golden;
  golden.campaign = "synthetic";
  golden.digests = {{"changed", 1}, {"dropped", 2}, {"same", 3}};
  GoldenStore fresh = golden;
  fresh.digests = {{"added", 9}, {"changed", 7}, {"same", 3}};

  const auto mismatches = diff_golden(golden, fresh);
  ASSERT_EQ(mismatches.size(), 3u);
  EXPECT_EQ(mismatches[0].job, "added");
  EXPECT_EQ(mismatches[0].expected, "(absent)");
  EXPECT_EQ(mismatches[1].job, "changed");
  EXPECT_EQ(mismatches[1].expected, digest_hex(1));
  EXPECT_EQ(mismatches[1].actual, digest_hex(7));
  EXPECT_EQ(mismatches[2].job, "dropped");
  EXPECT_EQ(mismatches[2].actual, "(absent)");
}

TEST(StandardCampaign, CoversTheCoreEnginesWithUniqueNames) {
  const Campaign campaign = standard_campaign(2019);
  EXPECT_EQ(campaign.name, "standard");
  ASSERT_GE(campaign.jobs.size(), 6u);
  for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < campaign.jobs.size(); ++j) {
      EXPECT_NE(campaign.jobs[i].name, campaign.jobs[j].name);
    }
  }
  // One job per engine family, recognizable by prefix.
  for (const char* prefix : {"kt0-", "decision-", "info-", "kt1-", "tightness-", "faults-"}) {
    const bool found = std::any_of(
        campaign.jobs.begin(), campaign.jobs.end(),
        [&](const CampaignJob& job) { return job.name.rfind(prefix, 0) == 0; });
    EXPECT_TRUE(found) << prefix;
  }
}

TEST(StandardCampaign, RunsToCompletionInMemory) {
  CampaignConfig config;
  config.threads = 2;
  const Campaign campaign = standard_campaign(2019);
  const CampaignReport report = CampaignRunner(config).run(campaign);
  ASSERT_TRUE(report.all_done()) << "failed=" << report.num_failed
                                 << " timed_out=" << report.num_timed_out;
  for (const CampaignJobRecord& rec : report.records) EXPECT_NE(rec.digest, 0u);
}

TEST(Campaign, RejectsMalformedNames) {
  Campaign campaign = synthetic_campaign(47, 1);
  campaign.jobs[0].name = "has space";
  CampaignConfig config;
  EXPECT_THROW(CampaignRunner(config).run(campaign), std::invalid_argument);
  campaign.jobs[0].name = "../escape";
  EXPECT_THROW(CampaignRunner(config).run(campaign), std::invalid_argument);
  campaign.jobs[0].name = "";
  EXPECT_THROW(CampaignRunner(config).run(campaign), std::invalid_argument);
}

}  // namespace
}  // namespace bcclb
