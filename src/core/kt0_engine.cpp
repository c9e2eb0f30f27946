#include "core/kt0_engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "bcc/algorithms/min_id_flood.h"
#include "bcc/batch_runner.h"
#include "bcc/soa_engine.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/mathutil.h"
#include "crossing/active_edges.h"
#include "crossing/crossing.h"
#include "crossing/matching.h"
#include "crossing/ported_instance.h"
#include "graph/generators.h"

namespace bcclb {

namespace {

// All KT-0 experiments run at b = 1 (the BCC(1) model of Section 3).
Transcript run_for_transcript(RoundEngine& engine, const BccInstance& instance,
                              const AlgorithmFactory& factory, unsigned t,
                              const PublicCoins* coins) {
  return engine.run(instance, 1, factory, t, CoinSpec::public_coins(coins)).transcript;
}

bool run_decision(RoundEngine& engine, const BccInstance& instance,
                  const AlgorithmFactory& factory, unsigned t, const PublicCoins* coins) {
  return engine.run(instance, 1, factory, t, CoinSpec::public_coins(coins)).decision;
}

double choose2(double m) { return m * (m - 1.0) / 2.0; }

}  // namespace

ImplicitClassifyReport implicit_classify_experiment(const ImplicitSpec& spec, unsigned bandwidth,
                                                    unsigned threads, bool digest_transcript) {
  ImplicitClassifyReport report;
  report.spec = spec;
  const InstanceView view(spec);
  const std::size_t n = view.num_vertices();
  report.bandwidth = bandwidth != 0 ? bandwidth : std::max(1u, bit_width_u64(n - 1));

  SoaMinIdFlood program;
  SoaRoundEngine engine;
  SoaRunOptions options;
  options.require_all_finished = true;
  options.digest_transcript = digest_transcript;
  options.threads = threads;
  const SoaRunResult result = engine.run(view, report.bandwidth, program,
                                         SoaMinIdFlood::rounds_needed(n), options);

  report.rounds_executed = result.rounds_executed;
  report.decision = result.decision;
  report.components_found = program.num_components();
  try {
    report.components_expected = view.implicit_instance()->num_components();
  } catch (const BcclbError&) {
    report.components_expected = 0;  // kRandomRegular: no closed form
  }
  report.ground_truth = report.components_expected != 0 ? report.components_expected == 1
                                                        : report.components_found == 1;
  report.verdict_correct = report.decision == report.ground_truth &&
                           (report.components_expected == 0 ||
                            report.components_found == report.components_expected);
  report.total_bits_broadcast = result.total_bits_broadcast;
  report.labels_digest = result.labels_digest;
  report.transcript_digest = result.transcript_digest;
  report.peak_buffer_bytes = result.stats.peak_buffer_bytes;
  report.wall_time_ns = result.stats.wall_time_ns;
  if (result.stats.wall_time_ns > 0) {
    report.rounds_per_sec = static_cast<double>(result.rounds_executed) * 1e9 /
                            static_cast<double>(result.stats.wall_time_ns);
  }
  return report;
}

StarErrorReport star_error_experiment(std::size_t n, unsigned t,
                                      const AlgorithmFactory& factory, const PublicCoins* coins,
                                      std::size_t max_verifications) {
  BCCLB_REQUIRE(n >= 6, "need n >= 6");
  StarErrorReport report;
  report.n = n;
  report.t = t;
  RoundEngine engine;  // for the handful of one-off runs
  const BatchRunner runner;

  // Canonical one-cycle instance I: the cycle 0-1-...-(n-1)-0.
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  const CycleStructure cs = CycleStructure::single_cycle(order);
  const BccInstance instance = canonical_kt0_instance(cs);
  const Transcript transcript = run_for_transcript(engine, instance, factory, t, coins);

  // S: every third cycle edge — bn/3c pairwise-independent edges (footnote 3).
  std::vector<DirectedEdge> s_edges;
  for (std::size_t i = 0; i + 1 < n && s_edges.size() < n / 3; i += 3) {
    s_edges.push_back({static_cast<VertexId>(i), static_cast<VertexId>(i + 1)});
  }
  report.independent_set_size = s_edges.size();
  for (std::size_t a = 0; a < s_edges.size(); ++a) {
    for (std::size_t b = a + 1; b < s_edges.size(); ++b) {
      BCCLB_CHECK(cs.edges_independent(s_edges[a], s_edges[b]), "S must be independent");
    }
  }

  // Pigeonhole into 2t-character labels.
  std::map<std::string, std::vector<DirectedEdge>> classes;
  for (const DirectedEdge& e : s_edges) {
    classes[transcript.edge_label(e.tail, e.head)].push_back(e);
  }
  const auto largest = std::max_element(
      classes.begin(), classes.end(),
      [](const auto& a, const auto& b) { return a.second.size() < b.second.size(); });
  const std::vector<DirectedEdge>& s_prime = largest->second;
  report.largest_class_size = s_prime.size();
  report.pigeonhole_floor = static_cast<double>(s_edges.size()) /
                            std::pow(3.0, 2.0 * static_cast<double>(t));
  report.forced_error = choose2(static_cast<double>(s_prime.size())) /
                        (2.0 * choose2(static_cast<double>(s_edges.size())));
  report.theory_floor = std::pow(3.0, -4.0 * static_cast<double>(t)) / 2.0;

  // Measured error under µ: the algorithm must say YES on I and NO on every
  // crossing (all crossings of S-pairs are two-cycle instances). Every
  // crossing is an independent instance — fan them across the batch pool.
  const bool yes_on_i = run_decision(engine, instance, factory, t, coins);
  std::vector<std::pair<std::size_t, std::size_t>> cross_pairs;
  for (std::size_t a = 0; a < s_edges.size(); ++a) {
    for (std::size_t b = a + 1; b < s_edges.size(); ++b) cross_pairs.push_back({a, b});
  }
  std::vector<char> crossing_says_yes(cross_pairs.size(), 0);
  runner.for_each_with_engine(cross_pairs.size(), [&](std::size_t i, RoundEngine& eng) {
    const auto [a, b] = cross_pairs[i];
    const BccInstance crossed = port_preserving_crossing(instance, s_edges[a], s_edges[b]);
    crossing_says_yes[i] = run_decision(eng, crossed, factory, t, coins) ? 1 : 0;
  });
  const std::size_t wrong = static_cast<std::size_t>(
      std::count(crossing_says_yes.begin(), crossing_says_yes.end(), 1));
  report.measured_error =
      0.5 * (yes_on_i ? 0.0 : 1.0) +
      0.5 * static_cast<double>(wrong) / static_cast<double>(cross_pairs.size());

  // Lemma 3.4 verification: crossings of same-class pairs must be state-wise
  // indistinguishable from I after t rounds. The reference signatures depend
  // only on I — compute them once, then verify crossings in parallel.
  std::vector<std::string> base_sigs(n);
  for (VertexId v = 0; v < n; ++v) base_sigs[v] = vertex_state_signature(instance, transcript, v);
  std::vector<std::pair<std::size_t, std::size_t>> verify_pairs;
  for (std::size_t a = 0; a < s_prime.size() && verify_pairs.size() < max_verifications; ++a) {
    for (std::size_t b = a + 1;
         b < s_prime.size() && verify_pairs.size() < max_verifications; ++b) {
      verify_pairs.push_back({a, b});
    }
  }
  std::vector<char> indistinguishable(verify_pairs.size(), 0);
  runner.for_each_with_engine(verify_pairs.size(), [&](std::size_t i, RoundEngine& eng) {
    const auto [a, b] = verify_pairs[i];
    const BccInstance crossed = port_preserving_crossing(instance, s_prime[a], s_prime[b]);
    const Transcript crossed_tr = run_for_transcript(eng, crossed, factory, t, coins);
    bool same = true;
    for (VertexId v = 0; v < n && same; ++v) {
      same = base_sigs[v] == vertex_state_signature(crossed, crossed_tr, v);
    }
    indistinguishable[i] = same ? 1 : 0;
  });
  report.crossings_checked = verify_pairs.size();
  report.crossings_verified = static_cast<std::size_t>(
      std::count(indistinguishable.begin(), indistinguishable.end(), 1));
  return report;
}

SampledErrorReport kt0_sampled_error(std::size_t n, unsigned t,
                                     const AlgorithmFactory& factory, std::size_t samples,
                                     std::uint64_t seed, const PublicCoins* coins) {
  BCCLB_REQUIRE(n >= 6 && samples >= 1, "need n >= 6 and at least one sample");
  SampledErrorReport report;
  report.n = n;
  report.t = t;
  report.samples = samples;
  Rng rng(seed);

  // Draw every sampled instance serially first — the RNG consumption order
  // is exactly the seed implementation's, so results are bit-identical —
  // then fan the independent runs across the batch pool.
  struct Sample {
    CycleStructure one;
    BccInstance i1;
    CycleStructure two;
    BccInstance i2;
  };
  std::vector<Sample> drawn;
  drawn.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    CycleStructure one = random_one_cycle(n, rng);
    BccInstance i1 = random_kt0_instance(one, rng);
    CycleStructure two = random_two_cycle(n, rng);
    BccInstance i2 = random_kt0_instance(two, rng);
    drawn.push_back({std::move(one), std::move(i1), std::move(two), std::move(i2)});
  }

  struct SampleOutcome {
    bool one_says_yes = false;
    bool two_says_yes = false;
    std::size_t largest_class = 0;
  };
  std::vector<SampleOutcome> outcomes(samples);
  const BatchRunner runner;
  runner.for_each_with_engine(samples, [&](std::size_t s, RoundEngine& eng) {
    const RunResult r1 = eng.run(drawn[s].i1, 1, factory, t, CoinSpec::public_coins(coins));
    outcomes[s].one_says_yes = r1.decision;
    outcomes[s].largest_class = edge_label_classes(drawn[s].one, r1.transcript)[0].edges.size();
    outcomes[s].two_says_yes = run_decision(eng, drawn[s].i2, factory, t, coins);
  });

  std::size_t wrong_yes = 0, wrong_no = 0;
  double class_sum = 0.0;
  for (const SampleOutcome& o : outcomes) {
    if (!o.one_says_yes) ++wrong_yes;
    if (o.two_says_yes) ++wrong_no;
    class_sum += static_cast<double>(o.largest_class);
  }
  report.yes_error = static_cast<double>(wrong_yes) / static_cast<double>(samples);
  report.no_error = static_cast<double>(wrong_no) / static_cast<double>(samples);
  report.total_error = 0.5 * (report.yes_error + report.no_error);
  report.mean_largest_class = class_sum / static_cast<double>(samples);
  return report;
}

Kt0MatchingReport kt0_matching_experiment(std::size_t n, unsigned t,
                                          const AlgorithmFactory& factory,
                                          const PublicCoins* coins) {
  Kt0MatchingReport report;
  report.n = n;
  report.t = t;

  auto v1 = all_one_cycle_structures(n);
  auto v2 = all_two_cycle_structures(n);
  report.v1 = v1.size();
  report.v2 = v2.size();
  report.size_ratio = static_cast<double>(v2.size()) / static_cast<double>(v1.size());
  report.harmonic_prediction = harmonic(n / 2) - 1.5;

  // Measured distributional error under µ (half on V1 uniformly, half on V2
  // uniformly): correct answer is YES on V1, NO on V2. Every structure is an
  // independent run — batch the whole enumeration, keeping the V1 transcripts
  // (they feed the active-edge analysis below).
  const BatchRunner runner;
  std::vector<char> v1_says_yes(v1.size(), 0);
  std::vector<char> v2_says_yes(v2.size(), 0);
  std::vector<Transcript> transcripts(v1.size(), Transcript(0, 0));
  runner.for_each_with_engine(v1.size() + v2.size(), [&](std::size_t i, RoundEngine& eng) {
    if (i < v1.size()) {
      const RunResult r =
          eng.run(canonical_kt0_instance(v1[i]), 1, factory, t, CoinSpec::public_coins(coins));
      v1_says_yes[i] = r.decision ? 1 : 0;
      transcripts[i] = r.transcript;
    } else {
      const std::size_t j = i - v1.size();
      v2_says_yes[j] = run_decision(eng, canonical_kt0_instance(v2[j]), factory, t, coins);
    }
  });
  const std::size_t wrong1 = static_cast<std::size_t>(
      std::count(v1_says_yes.begin(), v1_says_yes.end(), 0));
  const std::size_t wrong2 = static_cast<std::size_t>(
      std::count(v2_says_yes.begin(), v2_says_yes.end(), 1));
  report.measured_error = 0.5 * static_cast<double>(wrong1) / static_cast<double>(v1.size()) +
                          0.5 * static_cast<double>(wrong2) / static_cast<double>(v2.size());

  // Pick the (x, y) with the largest total active-edge mass over V1, folding
  // serially in enumeration order.
  std::map<std::string, std::size_t> label_mass;
  for (std::size_t i = 0; i < v1.size(); ++i) {
    for (const auto& cls : edge_label_classes(v1[i], transcripts[i])) {
      label_mass[cls.label] += cls.edges.size();
    }
  }
  const auto best = std::max_element(
      label_mass.begin(), label_mass.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  report.best_label = best->first;
  const std::string x = report.best_label.substr(0, t);
  const std::string y = report.best_label.substr(t);

  // G^t_{x,y} and its matching bounds. Transcripts were already computed;
  // label each one-cycle's activity straight from its stored transcript
  // (v1[i] pairs with transcripts[i]), sharded over the pool, then hand the
  // flat table and both enumerations to the packed kernel — no per-structure
  // closure call or key lookup anywhere in the build.
  std::vector<std::vector<DirectedEdge>> rows(v1.size());
  runner.for_each(v1.size(), [&](std::size_t i) {
    rows[i] = active_edges(v1[i], transcripts[i], x, y);
  });
  ActiveEdgeTable table;
  table.offsets.reserve(v1.size() + 1);
  table.edges.reserve(v1.size() * n);
  for (const auto& row : rows) table.push_row(row);
  const IndistinguishabilityGraph g =
      build_indistinguishability_graph(std::move(v1), std::move(v2), table);
  report.graph_edges = g.num_edges();
  report.max_matching = max_bipartite_matching(g.adj, g.two_cycles.size());
  report.max_saturating_k = max_saturating_k(g.adj, g.two_cycles.size(), 8);
  const double mu1 = 0.5 / static_cast<double>(g.one_cycles.size());
  const double mu2 = 0.5 / static_cast<double>(g.two_cycles.size());
  report.matching_error_bound = static_cast<double>(report.max_matching) * std::min(mu1, mu2);
  return report;
}

}  // namespace bcclb
