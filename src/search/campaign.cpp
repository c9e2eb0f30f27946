#include "search/campaign.h"

#include <cstdio>

#include "bcc/checkpoint.h"

namespace bcclb {

namespace {

// Rough planning footprint of one cell: the oracle's materialized instance
// set dominates (|V1| + |V2| instances, each O(n^2) wiring), plus one
// engine's flat buffers per worker.
std::size_t estimated_cell_bytes(std::size_t n) {
  // |V1| + |V2| grows as (n-1)!; n <= 7 in the standard campaign.
  std::size_t structures = 1;
  for (std::size_t k = 2; k < n; ++k) structures *= k;
  structures *= 2;  // V2 is comparable to V1 at these sizes
  return structures * n * n * sizeof(std::uint32_t) + n * n * 64;
}

// One cell as a campaign job: run_search under `config` (seed included),
// rendered as the cell's artifact.
CampaignJob cell_job(const SearchConfig& config, std::string name) {
  const std::size_t est = estimated_cell_bytes(config.n);
  return {std::move(name), est, [config](const CampaignJobContext& context) {
            SearchConfig cfg = config;
            // Worker width is a scheduling knob, never part of the output —
            // run_search's determinism contract guarantees it.
            cfg.threads = context.threads;
            const SearchOutcome outcome = run_search(cfg);
            CampaignJobResult out;
            out.output = render_search_artifact(cfg, outcome);
            return out;
          }};
}

// A cell of the standard campaign: its seed derives from the campaign's.
CampaignJob search_cell_job(std::uint64_t campaign_seed, SearchConfig config,
                            std::string name) {
  config.seed = search_job_seed(campaign_seed, name);
  return cell_job(config, std::move(name));
}

SearchConfig cell(std::size_t n, unsigned rounds, SearchDriver driver, std::uint32_t buckets,
                  std::uint64_t budget) {
  SearchConfig config;
  config.n = n;
  config.rounds = rounds;
  config.driver = driver;
  config.buckets = buckets;
  config.budget = budget;
  return config;
}

}  // namespace

std::uint64_t search_job_seed(std::uint64_t campaign_seed, const std::string& job_name) {
  // Chain the campaign seed through the job name's digest so cells draw
  // unrelated streams but remain pure functions of (campaign seed, name).
  return campaign_seed ^ fnv1a(job_name);
}

Campaign search_campaign(std::uint64_t seed) {
  Campaign campaign;
  campaign.name = "search";
  campaign.seed = seed;
  // The exhaustive cell is the ground truth for the n=6 t=1 K=2 space (36
  // tables); the seeded drivers must rediscover its optimum (search_test
  // pins that) and the larger cells probe spaces enumeration cannot cover.
  campaign.jobs.push_back(search_cell_job(
      seed, cell(6, 1, SearchDriver::kExhaustive, 2, 0), "n6-t1-exhaustive-k2"));
  campaign.jobs.push_back(
      search_cell_job(seed, cell(6, 1, SearchDriver::kRandom, 4, 96), "n6-t1-random"));
  campaign.jobs.push_back(
      search_cell_job(seed, cell(6, 1, SearchDriver::kEvolution, 4, 96), "n6-t1-evolution"));
  campaign.jobs.push_back(
      search_cell_job(seed, cell(6, 2, SearchDriver::kEvolution, 4, 96), "n6-t2-evolution"));
  campaign.jobs.push_back(
      search_cell_job(seed, cell(7, 1, SearchDriver::kEvolution, 4, 64), "n7-t1-evolution"));
  campaign.jobs.push_back(
      search_cell_job(seed, cell(7, 2, SearchDriver::kRandom, 4, 48), "n7-t2-random"));
  return campaign;
}

Campaign single_cell_search_campaign(const SearchConfig& config) {
  Campaign campaign;
  char name[128];
  std::snprintf(name, sizeof name, "n%zu-t%u-%s-k%u-b%llu", config.n, config.rounds,
                search_driver_name(config.driver), config.buckets,
                static_cast<unsigned long long>(config.budget));
  campaign.name = std::string("search-") + name;
  campaign.seed = config.seed;
  campaign.jobs.push_back(cell_job(config, name));
  return campaign;
}

}  // namespace bcclb
