#include "search/fitness.h"

#include <algorithm>
#include <string>
#include <utility>

#include "bcc/checkpoint.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "core/kt0_engine.h"
#include "crossing/indistinguishability_graph.h"
#include "crossing/matching.h"
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

// One round r of the table strategy on one instance's n vertex states, in
// place (search/strategy.h); heard[v] receives the code of v's broadcast.
inline void play_round(const StrategyTable& table, unsigned r, std::size_t n,
                       const std::uint8_t* peers, std::uint64_t* state, std::uint8_t* heard) {
  const std::uint32_t k = table.buckets;
  const std::size_t ports = n - 1;
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
      state[v] = strategy_mix_byte(h, heard[peers[v * ports + p]]);
    }
  }
}

// The most frequent key, ties broken toward the smallest — the first
// maximum, as std::max_element picks it.
std::uint64_t heaviest_label(std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  std::uint64_t best = keys.front();
  std::size_t best_run = 0;
  for (std::size_t i = 0, j = 0; i < keys.size(); i = j) {
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    if (j - i > best_run) {
      best_run = j - i;
      best = keys[i];
    }
  }
  return best;
}

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
  one_cycles_ = all_one_cycle_structures(n);
  two_cycles_ = all_two_cycle_structures(n);
  v1_count_ = one_cycles_.size();
  v2_count_ = two_cycles_.size();
  denom_ = 2 * static_cast<std::uint64_t>(v1_count_) * static_cast<std::uint64_t>(v2_count_);

  const Wiring kt1 = Wiring::kt1(n);
  for (const std::vector<VertexId>& row : kt1.tables()) {
    for (const VertexId peer : row) peers_.push_back(static_cast<std::uint8_t>(peer));
  }
  // In a canonical instance (canonical_kt0_instance: IDs 0..n-1 over
  // Wiring::kt1(n)) vertex v's KT-0 view is its ID and the sorted ports of
  // its two cycle neighbours, so the start states come straight from the
  // cycles.
  start_states_.resize((v1_count_ + v2_count_) * n);
  std::uint64_t* states = start_states_.data();
  const auto record = [&](const CycleStructure& cs) {
    for (const std::vector<VertexId>& cycle : cs.cycles()) {
      const std::size_t len = cycle.size();
      for (std::size_t j = 0; j < len; ++j) {
        const VertexId v = cycle[j];
        Port ports[2] = {kt1.port_at(v, cycle[(j + len - 1) % len]),
                         kt1.port_at(v, cycle[(j + 1) % len])};
        if (ports[0] > ports[1]) std::swap(ports[0], ports[1]);
        states[v] = strategy_start_state(v, ports);
      }
    }
    states += n;
  };
  edge_tails_.reserve(v1_count_ * n);
  edge_heads_.reserve(v1_count_ * n);
  for (const CycleStructure& cs : one_cycles_) {
    record(cs);
    for (const DirectedEdge& e : cs.directed_edges()) {
      edge_tails_.push_back(static_cast<std::uint8_t>(e.tail));
      edge_heads_.push_back(static_cast<std::uint8_t>(e.head));
    }
  }
  for (const CycleStructure& cs : two_cycles_) record(cs);
}

FitnessResult FitnessOracle::evaluate(const StrategyTable& table,
                                      const BatchRunner& runner) const {
  validate_strategy(table);
  // The engine stops at its round cap or once every vertex has run the
  // table's rounds, whichever comes first.
  const unsigned rounds = std::min<unsigned>(rounds_, table.rounds);
  const std::uint32_t k = table.buckets;
  const std::size_t n = n_;
  std::vector<std::uint8_t> wrong(num_instances(), 0);
  const auto workers = static_cast<unsigned>(std::min<std::size_t>(
      runner.num_threads(), std::max<std::size_t>(1, wrong.size() / kMinInstancesPerBlock)));
  parallel_for_blocks(wrong.size(), workers, [&](std::size_t begin, std::size_t end) {
    std::uint64_t state[kMaxN];
    std::uint8_t heard[kMaxN];
    for (std::size_t i = begin; i < end; ++i) {
      std::copy_n(start_states_.data() + i * n, n, state);
      for (unsigned r = 0; r < rounds; ++r) play_round(table, r, n, peers_.data(), state, heard);
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
  for (const CycleStructure& cs : one_cycles_) run(cs, true);
  for (const CycleStructure& cs : two_cycles_) run(cs, false);
  return tally(wrong, v1_count_, v2_count_, denom_);
}

std::uint64_t FitnessOracle::certificate_floor_scaled(const StrategyTable& table) const {
  validate_strategy(table);
  BCCLB_REQUIRE(table.rounds == rounds_,
                "fitness oracle: a certificate needs a table of the oracle's rounds");
  const std::size_t n = n_;
  const unsigned t = rounds_;
  // V1 vertex j = i * n + v is vertex v of one-cycle i.
  const std::size_t senders = v1_count_ * n;

  // digits[r * senders + j]: what V1 vertex j broadcast in round r, as its
  // heard code. The codes order 0 < 1 < silent, as Message::to_string's
  // bytes '0' < '1' < '_' do.
  std::vector<std::uint8_t> digits(static_cast<std::size_t>(t) * senders);
  std::uint64_t state[kMaxN];
  std::uint8_t heard[kMaxN];
  for (std::size_t i = 0; i < v1_count_; ++i) {
    std::copy_n(start_states_.data() + i * n, n, state);
    for (unsigned r = 0; r < t; ++r) {
      play_round(table, r, n, peers_.data(), state, heard);
      std::copy_n(heard, n, digits.data() + r * senders + i * n);
    }
  }

  // rank[j]: the dense rank of vertex j's sent string among all of V1's, in
  // byte order, built one round at a time: (prefix rank, digit) pairs sort
  // as the extended prefixes do. Ranks stay below `senders` at any t.
  std::vector<std::uint32_t> rank(senders, 0);
  std::vector<std::uint32_t> next;
  std::uint64_t distinct = 1;
  for (unsigned r = 0; r < t; ++r) {
    const std::uint8_t* digit = digits.data() + r * senders;
    next.assign(distinct * 3, 0);
    for (std::size_t j = 0; j < senders; ++j) next[rank[j] * 3 + digit[j]] = 1;
    std::uint32_t seen = 0;
    for (std::uint32_t& slot : next) {
      const std::uint32_t present = slot;
      slot = seen;
      seen += present;
    }
    for (std::size_t j = 0; j < senders; ++j) rank[j] = next[rank[j] * 3 + digit[j]];
    distinct = seen;
  }

  // Each clockwise edge's label x + y (Transcript::edge_label) as the key
  // rank(tail) · distinct + rank(head), which sorts as the label strings do;
  // one-cycle i's n edges sit at [i * n, i * n + n).
  std::vector<std::uint64_t> keys(senders);
  for (std::size_t e = 0; e < senders; ++e) {
    const std::size_t base = e - e % n;
    keys[e] = rank[base + edge_tails_[e]] * distinct + rank[base + edge_heads_[e]];
  }
  // The label of largest active-edge mass over V1, ties to the smallest:
  // kt0_matching_experiment's std::max_element over its std::map.
  const std::uint64_t best = heaviest_label(keys);

  ActiveEdgeTable active;
  active.offsets.reserve(v1_count_ + 1);
  for (std::size_t i = 0; i < v1_count_; ++i) {
    for (std::size_t e = i * n; e < i * n + n; ++e) {
      if (keys[e] == best) active.edges.push_back({edge_tails_[e], edge_heads_[e]});
    }
    active.offsets.push_back(static_cast<std::uint32_t>(active.edges.size()));
  }
  // One thread: at n = 7 a fan-out costs more than the whole build.
  const CsrAdjacency adj =
      build_indistinguishability_adjacency(one_cycles_, two_cycles_, active, 1);
  // |M| pairs each absorb min(µ1, µ2) = min(|V1|, |V2|) / denom.
  return static_cast<std::uint64_t>(max_bipartite_matching(adj, two_cycles_.size())) *
         std::min<std::uint64_t>(v1_count_, v2_count_);
}

std::uint64_t FitnessOracle::check_candidate(const StrategyTable& table,
                                             const FitnessResult& score) const {
  const std::uint64_t floor_scaled = certificate_floor_scaled(table);
  if (score.err_scaled >= floor_scaled) return floor_scaled;

  // Impossible score: replay both sides of the comparison on the RoundEngine
  // — the score through engine_replay, the floor through the referee
  // certificate — and name whichever disagrees. Every outcome is a
  // toolchain bug.
  const FitnessResult replay = engine_replay(table);
  const std::uint64_t referee_floor =
      static_cast<std::uint64_t>(
          kt0_matching_experiment(n_, rounds_, strategy_factory(table)).max_matching) *
      std::min<std::uint64_t>(v1_count_, v2_count_);
  const auto scaled = [&](std::uint64_t value) {
    return std::to_string(value) + "/" + std::to_string(denom_);
  };
  std::string message = "strategy " + digest_hex(strategy_digest(table)) +
                        " at n=" + std::to_string(n_) + " t=" + std::to_string(rounds_) +
                        ": scored " + scaled(score.err_scaled) + " below its certificate floor " +
                        scaled(floor_scaled);
  message += replay != score ? ", and the RoundEngine replay disagrees with that score (" +
                                   scaled(replay.err_scaled) + ")"
                             : ", reproduced by the RoundEngine replay";
  message += referee_floor != floor_scaled
                 ? "; the RoundEngine certificate disagrees with that floor (" +
                       scaled(referee_floor) + ")"
                 : "; the RoundEngine certificate confirms that floor";
  if (replay != score) {
    message += " — the flat evaluation and the engine no longer run the same strategy";
  }
  if (referee_floor != floor_scaled) {
    message += " — the flat certificate and kt0_matching_experiment no longer build the same "
               "graph";
  }
  if (replay == score && referee_floor == floor_scaled) {
    message += " — the certificate checker or the oracle is wrong; report as a verifier bug, "
               "not a discovery";
  }
  throw VerifierAnomalyError(message);
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
