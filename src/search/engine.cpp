#include "search/engine.h"

#include <algorithm>
#include <cstdio>

#include "bcc/batch_runner.h"
#include "bcc/checkpoint.h"
#include "common/check.h"

namespace bcclb {

namespace {

// printf-append with a stack buffer; artifact lines are short and fixed.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char line[256];
  std::snprintf(line, sizeof line, fmt, args...);
  out += line;
}

// Tracks the unique global best under the (err_scaled, serialization)
// order, and enforces the anomaly policy on every strict improvement.
struct BestTracker {
  explicit BestTracker(const FitnessOracle& o) : oracle(o) {}

  const FitnessOracle& oracle;
  StrategyTable best;
  FitnessResult best_score;
  std::string best_key;
  std::uint64_t improvements = 0;
  std::uint64_t floor_scaled = 0;
  bool floor_is_for_best = false;  // floor_scaled was checked on `best` itself
  bool has_best = false;

  void offer(const StrategyTable& table, const FitnessResult& score) {
    const std::string key = serialize_strategy(table);
    if (has_best && !candidate_improves(best_score, best_key, score, key)) return;
    const bool strict = !has_best || score.err_scaled < best_score.err_scaled;
    if (strict) {
      // check_candidate throws VerifierAnomalyError on an impossible score.
      floor_scaled = oracle.check_candidate(table, score);
      ++improvements;
    }
    floor_is_for_best = strict;
    best = table;
    best_score = score;
    best_key = key;
    has_best = true;
  }
};

SearchOutcome outcome_of(const BestTracker& tracker, std::uint64_t evaluated) {
  BCCLB_REQUIRE(tracker.has_best, "search evaluated no candidates");
  SearchOutcome outcome;
  outcome.best = tracker.best;
  outcome.best_score = tracker.best_score;
  outcome.evaluated = evaluated;
  outcome.improvements = tracker.improvements;
  // A tie-accepted final best may carry a different certificate than the
  // last strict improvement; re-verify it so the artifact reports *its*
  // floor (and the anomaly policy covers the exact table being published).
  outcome.floor_scaled = tracker.floor_is_for_best
                             ? tracker.floor_scaled
                             : tracker.oracle.check_candidate(tracker.best, tracker.best_score);
  return outcome;
}

SearchOutcome random_driver(const SearchConfig& config, const FitnessOracle& oracle,
                            const BatchRunner& runner) {
  Rng rng(config.seed);
  BestTracker tracker{oracle};
  for (std::uint64_t i = 0; i < config.budget; ++i) {
    const StrategyTable table = random_strategy(static_cast<std::uint32_t>(config.n),
                                                config.rounds, config.buckets, rng);
    tracker.offer(table, oracle.evaluate(table, runner));
  }
  return outcome_of(tracker, config.budget);
}

SearchOutcome evolution_driver(const SearchConfig& config, const FitnessOracle& oracle,
                               const BatchRunner& runner) {
  Rng rng(config.seed);
  const std::size_t pop_size =
      std::max<std::size_t>(2, std::min<std::uint64_t>(config.population, config.budget));
  BestTracker tracker{oracle};

  struct Member {
    StrategyTable table;
    FitnessResult score;
    std::string key;
  };
  std::vector<Member> population;
  population.reserve(pop_size);
  std::uint64_t evaluated = 0;
  for (std::size_t i = 0; i < pop_size; ++i) {
    Member m;
    m.table = random_strategy(static_cast<std::uint32_t>(config.n), config.rounds,
                              config.buckets, rng);
    m.score = oracle.evaluate(m.table, runner);
    m.key = serialize_strategy(m.table);
    ++evaluated;
    tracker.offer(m.table, m.score);
    population.push_back(std::move(m));
  }

  // Tournament of `tournament` uniform draws; winner by the same exact
  // (err_scaled, serialization) order the global best uses.
  const auto select = [&]() -> const Member& {
    std::size_t winner = static_cast<std::size_t>(rng.next_below(pop_size));
    for (std::uint32_t d = 1; d < std::max<std::uint32_t>(1, config.tournament); ++d) {
      const std::size_t c = static_cast<std::size_t>(rng.next_below(pop_size));
      if (candidate_improves(population[winner].score, population[winner].key,
                             population[c].score, population[c].key)) {
        winner = c;
      }
    }
    return population[winner];
  };

  while (evaluated < config.budget) {
    // Elite: carry the population's best member over unchanged.
    std::size_t elite = 0;
    for (std::size_t i = 1; i < pop_size; ++i) {
      if (candidate_improves(population[elite].score, population[elite].key,
                             population[i].score, population[i].key)) {
        elite = i;
      }
    }
    std::vector<Member> next;
    next.reserve(pop_size);
    next.push_back(population[elite]);
    while (next.size() < pop_size && evaluated < config.budget) {
      Member child;
      child.table = crossover_strategy(select().table, select().table, rng);
      mutate_strategy(child.table, rng, 1 + static_cast<unsigned>(rng.next_below(2)));
      child.score = oracle.evaluate(child.table, runner);
      child.key = serialize_strategy(child.table);
      ++evaluated;
      tracker.offer(child.table, child.score);
      next.push_back(std::move(child));
    }
    population = std::move(next);
  }
  return outcome_of(tracker, evaluated);
}

SearchOutcome exhaustive_driver(const SearchConfig& config, const FitnessOracle& oracle,
                                const BatchRunner& runner) {
  const std::size_t cells = static_cast<std::size_t>(config.rounds) * config.buckets;
  std::uint64_t space = 1;
  for (std::size_t c = 0; c < cells; ++c) {
    space *= 3;
    BCCLB_REQUIRE(space <= kMaxExhaustiveCandidates, "exhaustive search space over cap");
  }
  for (std::uint32_t k = 0; k < config.buckets; ++k) {
    space *= 2;
    BCCLB_REQUIRE(space <= kMaxExhaustiveCandidates, "exhaustive search space over cap");
  }

  StrategyTable table;
  table.n = static_cast<std::uint32_t>(config.n);
  table.rounds = config.rounds;
  table.buckets = config.buckets;
  table.broadcast.assign(cells, kActSilent);
  table.vote_no.assign(config.buckets, 0);

  BestTracker tracker{oracle};
  std::uint64_t evaluated = 0;
  // Odometer enumeration: broadcast cells (base 3) are the low digits, vote
  // cells (base 2) the high ones; ascending order is deterministic and makes
  // the all-silent always-YES table candidate 0.
  for (std::uint64_t index = 0; index < space; ++index) {
    std::uint64_t rest = index;
    for (std::size_t c = 0; c < cells; ++c) {
      table.broadcast[c] = static_cast<std::uint8_t>(rest % 3);
      rest /= 3;
    }
    for (std::uint32_t k = 0; k < config.buckets; ++k) {
      table.vote_no[k] = static_cast<std::uint8_t>(rest % 2);
      rest /= 2;
    }
    tracker.offer(table, oracle.evaluate(table, runner));
    ++evaluated;
  }
  return outcome_of(tracker, evaluated);
}

}  // namespace

const char* search_driver_name(SearchDriver driver) {
  switch (driver) {
    case SearchDriver::kRandom: return "random";
    case SearchDriver::kEvolution: return "evolution";
    case SearchDriver::kExhaustive: return "exhaustive";
  }
  return "?";
}

SearchOutcome run_search(const SearchConfig& config) {
  const FitnessOracle oracle(config.n, config.rounds);
  return run_search(config, oracle);
}

SearchOutcome run_search(const SearchConfig& config, const FitnessOracle& oracle) {
  BCCLB_REQUIRE(config.bandwidth == 1, "search: only bandwidth 1 is implemented");
  BCCLB_REQUIRE(oracle.n() == config.n && oracle.rounds() == config.rounds,
                "search: oracle does not match the config");
  BCCLB_REQUIRE(config.buckets >= 1 && config.buckets <= 64,
                "search: buckets must be in [1, 64]");
  BCCLB_REQUIRE(config.budget >= 1 || config.driver == SearchDriver::kExhaustive,
                "search: budget must be >= 1");
  const BatchRunner runner(config.threads);
  switch (config.driver) {
    case SearchDriver::kRandom: return random_driver(config, oracle, runner);
    case SearchDriver::kEvolution: return evolution_driver(config, oracle, runner);
    case SearchDriver::kExhaustive: return exhaustive_driver(config, oracle, runner);
  }
  BCCLB_REQUIRE(false, "search: unknown driver");
  return {};
}

std::string render_search_artifact(const SearchConfig& config, const SearchOutcome& outcome) {
  std::string out = "bcclb search artifact v1\n";
  appendf(out, "n %zu rounds %u bandwidth %u buckets %u\n", config.n, config.rounds,
          config.bandwidth, config.buckets);
  appendf(out, "driver %s seed %llu budget %llu\n", search_driver_name(config.driver),
          static_cast<unsigned long long>(config.seed),
          static_cast<unsigned long long>(config.budget));
  appendf(out, "evaluated %llu improvements %llu\n",
          static_cast<unsigned long long>(outcome.evaluated),
          static_cast<unsigned long long>(outcome.improvements));
  appendf(out, "best-error %llu/%llu = %.6f (wrong-yes %u wrong-no %u)\n",
          static_cast<unsigned long long>(outcome.best_score.err_scaled),
          static_cast<unsigned long long>(outcome.best_score.denom),
          outcome.best_score.error(), outcome.best_score.wrong_yes,
          outcome.best_score.wrong_no);
  appendf(out, "certificate-floor %llu/%llu bound-respected %s\n",
          static_cast<unsigned long long>(outcome.floor_scaled),
          static_cast<unsigned long long>(outcome.best_score.denom),
          outcome.best_score.err_scaled >= outcome.floor_scaled ? "yes" : "ANOMALY");
  appendf(out, "strategy-digest %s\n", digest_hex(strategy_digest(outcome.best)).c_str());
  out += serialize_strategy(outcome.best);
  return out;
}

}  // namespace bcclb
