#include "search/fitness.h"

#include <algorithm>
#include <string>

#include "bcc/checkpoint.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "core/kt0_engine.h"
#include "crossing/ported_instance.h"
#include "graph/cycle_structure.h"

namespace bcclb {

namespace {

// The exhaustive range; evaluate() keeps one instance's states on the stack.
constexpr std::size_t kMaxN = 9;

// Fewest instances worth a worker of their own. Starting a thread costs
// tens of microseconds, about what one n = 7 evaluation (465 instances)
// costs serially, so n = 7 runs inline and n >= 8 fans out.
constexpr std::size_t kMinInstancesPerBlock = 1024;

// Serial tally in instance order over fixed-position bytes (wrong[i] != 0
// iff instance i was answered wrongly; V1 first), so the result cannot
// depend on worker scheduling.
FitnessResult tally(const std::vector<std::uint8_t>& wrong, std::size_t v1_count,
                    std::size_t v2_count, std::uint64_t denom) {
  FitnessResult result;
  result.denom = denom;
  for (std::size_t i = 0; i < wrong.size(); ++i) {
    if (!wrong[i]) continue;
    if (i < v1_count) {
      ++result.wrong_yes;
    } else {
      ++result.wrong_no;
    }
  }
  result.err_scaled = static_cast<std::uint64_t>(result.wrong_yes) * v2_count +
                      static_cast<std::uint64_t>(result.wrong_no) * v1_count;
  return result;
}

}  // namespace

FitnessOracle::FitnessOracle(std::size_t n, unsigned rounds) : n_(n), rounds_(rounds) {
  BCCLB_REQUIRE(n >= 6 && n <= kMaxN,
                "fitness oracle: exhaustive evaluation supports 6 <= n <= 9");
  BCCLB_REQUIRE(rounds >= 1, "fitness oracle: rounds must be >= 1");
  const auto v1 = all_one_cycle_structures(n);
  const auto v2 = all_two_cycle_structures(n);
  v1_count_ = v1.size();
  v2_count_ = v2.size();
  denom_ = 2 * static_cast<std::uint64_t>(v1_count_) * static_cast<std::uint64_t>(v2_count_);

  const Wiring kt1 = Wiring::kt1(n);
  for (const std::vector<VertexId>& row : kt1.tables()) {
    for (const VertexId peer : row) peers_.push_back(static_cast<std::uint8_t>(peer));
  }
  start_states_.reserve((v1_count_ + v2_count_) * n);
  const auto record = [&](const CycleStructure& cs) {
    const BccInstance instance = canonical_kt0_instance(cs);
    BCCLB_CHECK(instance.wiring() == kt1,
                "fitness oracle: canonical instances must share Wiring::kt1(n)");
    for (VertexId v = 0; v < n; ++v) {
      const LocalView view = make_local_view(instance, v, 1, nullptr, nullptr);
      start_states_.push_back(strategy_start_state(view.id, view.input_ports));
    }
  };
  for (const CycleStructure& cs : v1) record(cs);
  for (const CycleStructure& cs : v2) record(cs);
}

FitnessResult FitnessOracle::evaluate(const StrategyTable& table,
                                      const BatchRunner& runner) const {
  validate_strategy(table);
  // The engine stops at its round cap or once every vertex has run the
  // table's rounds, whichever comes first.
  const unsigned rounds = std::min<unsigned>(rounds_, table.rounds);
  const std::uint32_t k = table.buckets;
  const std::size_t n = n_;
  const std::size_t ports = n - 1;
  std::vector<std::uint8_t> wrong(num_instances(), 0);
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(
      runner.num_threads(), std::max<std::size_t>(1, wrong.size() / kMinInstancesPerBlock)));
  parallel_for_blocks(wrong.size(), workers, [&](std::size_t begin, std::size_t end) {
    std::uint64_t state[kMaxN];
    std::uint8_t heard[kMaxN];
    for (std::size_t i = begin; i < end; ++i) {
      std::copy_n(start_states_.data() + i * n, n, state);
      for (unsigned r = 0; r < rounds; ++r) {
        const std::uint8_t* row = table.broadcast.data() + static_cast<std::size_t>(r) * k;
        for (std::size_t v = 0; v < n; ++v) {
          const std::uint8_t action = row[state[v] % k];
          state[v] = strategy_mix_byte(state[v], action);
          heard[v] = strategy_heard_code(action);
        }
        // Port-major, so the n vertices' hash chains advance side by side.
        for (std::size_t v = 0; v < n; ++v) state[v] = strategy_mix(state[v], r);
        for (std::size_t p = 0; p < ports; ++p) {
          for (std::size_t v = 0; v < n; ++v) {
            const std::uint64_t h = strategy_mix_byte(state[v], static_cast<std::uint8_t>(p));
            state[v] = strategy_mix_byte(h, heard[peers_[v * ports + p]]);
          }
        }
      }
      bool yes = true;
      for (std::size_t v = 0; v < n; ++v) yes = yes && table.vote_no[state[v] % k] == 0;
      wrong[i] = yes != (i < v1_count_) ? 1 : 0;
    }
  });
  return tally(wrong, v1_count_, v2_count_, denom_);
}

FitnessResult FitnessOracle::engine_replay(const StrategyTable& table) const {
  const AlgorithmFactory factory = strategy_factory(table);
  std::vector<std::uint8_t> wrong;
  wrong.reserve(num_instances());
  RoundEngine engine;
  const auto run = [&](const CycleStructure& cs, bool is_yes) {
    const RunResult res = engine.run(canonical_kt0_instance(cs), 1, factory, rounds_);
    wrong.push_back(res.decision != is_yes ? 1 : 0);
  };
  for (const CycleStructure& cs : all_one_cycle_structures(n_)) run(cs, true);
  for (const CycleStructure& cs : all_two_cycle_structures(n_)) run(cs, false);
  return tally(wrong, v1_count_, v2_count_, denom_);
}

std::uint64_t FitnessOracle::certificate_floor_scaled(const StrategyTable& table) const {
  const Kt0MatchingReport cert =
      kt0_matching_experiment(n_, rounds_, strategy_factory(table));
  // |M| pairs each absorb min(µ1, µ2) = min(|V1|, |V2|) / denom.
  return static_cast<std::uint64_t>(cert.max_matching) *
         std::min<std::uint64_t>(v1_count_, v2_count_);
}

std::uint64_t FitnessOracle::check_candidate(const StrategyTable& table,
                                             const FitnessResult& score) const {
  const std::uint64_t floor_scaled = certificate_floor_scaled(table);
  if (score.err_scaled >= floor_scaled) return floor_scaled;

  // Impossible score: replay it on the second execution path. Either
  // outcome below is a toolchain bug.
  const FitnessResult replay = engine_replay(table);
  const std::string detail =
      "strategy " + digest_hex(strategy_digest(table)) + " at n=" + std::to_string(n_) +
      " t=" + std::to_string(rounds_) + ": scored " + std::to_string(score.err_scaled) + "/" +
      std::to_string(denom_) + " below its certificate floor " +
      std::to_string(floor_scaled) + "/" + std::to_string(denom_);
  if (replay != score) {
    throw VerifierAnomalyError(
        detail + ", and the RoundEngine replay disagrees with that score (" +
        std::to_string(replay.err_scaled) + "/" + std::to_string(denom_) +
        ") — the flat evaluation and the engine no longer run the same strategy");
  }
  throw VerifierAnomalyError(
      detail + ", reproduced by the RoundEngine replay — the certificate checker or the "
               "oracle is wrong; report as a verifier bug, not a discovery");
}

bool candidate_improves(const FitnessResult& incumbent_score, const std::string& incumbent_key,
                        const FitnessResult& challenger_score,
                        const std::string& challenger_key) {
  if (challenger_score.err_scaled != incumbent_score.err_scaled) {
    return challenger_score.err_scaled < incumbent_score.err_scaled;
  }
  return challenger_key < incumbent_key;
}

}  // namespace bcclb
