// SoaMinIdFlood vs MinIdFloodAlgorithm on RoundEngine (the per-vertex
// adapter on the same loop): the equivalence contract that pins the native
// SoA program to the per-vertex reference — identical round-major
// transcript digests, decisions, labels, and fault audit logs on every
// instance both can run — plus the SoaBroadcasts buffer unit tests, the
// loop's bandwidth-error context, thread invariance, BatchRunner::
// run_implicit, and the 10^5 scale smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bcc/algorithms/min_id_flood.h"
#include "bcc/batch_runner.h"
#include "bcc/faults.h"
#include "bcc/instance_view.h"
#include "bcc/round_engine.h"
#include "bcc/soa_engine.h"
#include "common/errors.h"

namespace bcclb {
namespace {

// ---- SoaBroadcasts ----------------------------------------------------------

TEST(SoaBroadcasts, TracksBitsIncrementallyAndValidatesWrites) {
  SoaBroadcasts out;
  out.reset(4, 8);
  EXPECT_EQ(out.round_bits(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_TRUE(out.is_silent(v));

  out.set_bits(0, 0b101, 3);
  out.set_bits(1, 0xff, 8);
  EXPECT_EQ(out.round_bits(), 11u);
  // Rewriting a slot replaces its contribution; silencing removes it.
  out.set_bits(0, 1, 5);
  EXPECT_EQ(out.round_bits(), 13u);
  out.set_silent(1);
  EXPECT_EQ(out.round_bits(), 5u);

  EXPECT_EQ(out.value(0), 1u);
  EXPECT_EQ(out.num_bits(0), 5u);
  EXPECT_THROW(out.value(1), std::invalid_argument);  // silent, like Message::value
  EXPECT_EQ(out.message(0), Message::bits(1, 5));
  EXPECT_EQ(out.message(1), Message::silent());

  EXPECT_THROW(out.set_bits(2, 0, 0), std::invalid_argument);   // len < 1
  EXPECT_THROW(out.set_bits(2, 0b100, 2), std::invalid_argument);  // value doesn't fit
  EXPECT_THROW(out.set_bits(2, 0, 9), BandwidthViolationError);    // len > bandwidth
  // Outside a run the buffer knows only the vertex; the engine adds the rest.
  try {
    out.set_bits(2, 0, 9);
  } catch (const BandwidthViolationError& e) {
    EXPECT_EQ(e.context().instance_digest, 0u);
    EXPECT_EQ(e.context().vertex, 2);
    EXPECT_EQ(e.context().round, -1);
  }

  // Failed writes must not corrupt the running total.
  EXPECT_EQ(out.round_bits(), 5u);
}

TEST(SoaBroadcasts, UncheckedWritesCountOversizedSlots) {
  SoaBroadcasts out;
  out.reset(3, 2);
  out.set_message(0, Message::bits(0b111, 3));
  out.set_message(1, Message::bits(0b1111, 4));
  EXPECT_EQ(out.oversized(), 2u);
  EXPECT_EQ(out.round_bits(), 7u);
  out.set_message(0, Message::silent());
  out.set_bits(1, 0b10, 2);
  EXPECT_EQ(out.oversized(), 0u);
  EXPECT_EQ(out.round_bits(), 2u);
}

// ---- helpers ----------------------------------------------------------------

unsigned flood_bandwidth(std::uint64_t n) {
  return std::max(1u, static_cast<unsigned>(std::bit_width(n - 1)));
}

std::vector<ImplicitSpec> equivalence_specs() {
  std::vector<ImplicitSpec> specs;
  for (const std::uint64_t n : {6ull, 9ull, 12ull}) {
    for (const ImplicitFamily family :
         {ImplicitFamily::kOneCycle, ImplicitFamily::kTwoCycle, ImplicitFamily::kMultiCycle,
          ImplicitFamily::kRandomRegular}) {
      if (family == ImplicitFamily::kMultiCycle && n < 9) continue;
      ImplicitSpec spec;
      spec.n = n;
      spec.family = family;
      spec.seed = 2019 + n;
      specs.push_back(spec);
    }
  }
  return specs;
}

struct ExplicitOutcome {
  RunResult result;
  std::vector<std::uint64_t> labels;
};

ExplicitOutcome run_explicit(const BccInstance& instance, unsigned bandwidth,
                             const FaultPlan* plan) {
  RoundEngine engine;
  RunOptions options;
  options.faults = plan;
  ExplicitOutcome out{engine.run(instance, bandwidth, min_id_flood_factory(),
                                 MinIdFloodAlgorithm::rounds_needed(instance.num_vertices()),
                                 options),
                      {}};
  for (const auto& label : out.result.labels) {
    out.labels.push_back(label.value());
  }
  return out;
}

struct SoaOutcome {
  SoaRunResult result;
  std::vector<std::uint64_t> labels;
};

SoaOutcome run_soa(const InstanceView& view, unsigned bandwidth, unsigned threads,
                   const FaultPlan* plan) {
  SoaMinIdFlood program;
  SoaRoundEngine engine;
  SoaRunOptions options;
  options.faults = plan;
  options.digest_transcript = true;
  options.threads = threads;
  SoaOutcome out{engine.run(view, bandwidth, program,
                            SoaMinIdFlood::rounds_needed(view.num_vertices()), options),
                 {}};
  for (VertexId v = 0; v < view.num_vertices(); ++v) {
    out.labels.push_back(program.label_of(v));
  }
  return out;
}

void expect_equivalent(const ExplicitOutcome& ref, const SoaOutcome& soa,
                       const std::string& context) {
  EXPECT_EQ(ref.result.transcript.round_major_digest(), soa.result.transcript_digest)
      << context;
  EXPECT_EQ(ref.result.rounds_executed, soa.result.rounds_executed) << context;
  EXPECT_EQ(ref.result.all_finished, soa.result.all_finished) << context;
  EXPECT_EQ(ref.result.decision, soa.result.decision) << context;
  EXPECT_EQ(ref.result.total_bits_broadcast, soa.result.total_bits_broadcast) << context;
  EXPECT_EQ(ref.labels, soa.labels) << context;

  // The fault audit logs must match event for event.
  ASSERT_EQ(ref.result.faults_applied.size(), soa.result.faults_applied.size()) << context;
  for (std::size_t i = 0; i < ref.result.faults_applied.size(); ++i) {
    const AppliedFault& a = ref.result.faults_applied[i];
    const AppliedFault& b = soa.result.faults_applied[i];
    EXPECT_EQ(a.round, b.round) << context << " fault " << i;
    EXPECT_EQ(a.vertex, b.vertex) << context << " fault " << i;
    EXPECT_EQ(a.kind, b.kind) << context << " fault " << i;
    EXPECT_EQ(a.before, b.before) << context << " fault " << i;
    EXPECT_EQ(a.after, b.after) << context << " fault " << i;
  }
  EXPECT_EQ(ref.result.crashed_vertices, soa.result.crashed_vertices) << context;
}

std::string context_of(const ImplicitSpec& spec) {
  return std::string(implicit_family_name(spec.family)) + " n=" + std::to_string(spec.n) +
         " seed=" + std::to_string(spec.seed);
}

// ---- fault-free equivalence -------------------------------------------------

TEST(SoaEquivalence, MatchesExplicitEngineBitForBitAcrossFamiliesAndThreads) {
  for (const ImplicitSpec& spec : equivalence_specs()) {
    const InstanceView view(spec);
    const BccInstance mat = view.to_explicit();
    const unsigned bw = flood_bandwidth(spec.n);
    const ExplicitOutcome ref = run_explicit(mat, bw, nullptr);
    ASSERT_TRUE(ref.result.all_finished) << context_of(spec);

    for (const unsigned threads : {1u, 2u, 8u}) {
      const SoaOutcome soa = run_soa(view, bw, threads, nullptr);
      expect_equivalent(ref, soa, context_of(spec) + " threads=" + std::to_string(threads));
    }

    // The SoA engine over the *explicit* wrapper must agree too: the seam is
    // representation-independent.
    const SoaOutcome wrapped = run_soa(InstanceView(&mat), bw, 1, nullptr);
    expect_equivalent(ref, wrapped, context_of(spec) + " explicit-wrapped");
  }
}

TEST(SoaEquivalence, DecisionMatchesGroundTruthOnCycleFamilies) {
  for (const ImplicitSpec& spec : equivalence_specs()) {
    if (spec.family == ImplicitFamily::kRandomRegular) continue;
    const InstanceView view(spec);
    SoaMinIdFlood program;
    SoaRoundEngine engine;
    const SoaRunResult result = engine.run(view, flood_bandwidth(spec.n), program,
                                           SoaMinIdFlood::rounds_needed(spec.n));
    const std::uint64_t expected = view.implicit_instance()->num_components();
    EXPECT_EQ(result.decision, expected == 1) << context_of(spec);
    EXPECT_EQ(program.num_components(), expected) << context_of(spec);
  }
}

// ---- bandwidth violations ---------------------------------------------------

// A min-ID flood whose vertex `vertex` writes one bit over the budget in
// round `round`: set_bits throws mid-broadcast, inside the loop.
class OvershootingFlood final : public SoaProgram {
 public:
  OvershootingFlood(VertexId vertex, unsigned round) : vertex_(vertex), round_(round) {}
  void init(const InstanceView& view, unsigned bandwidth, const FaultInjector* faults,
            unsigned threads) override {
    bandwidth_ = bandwidth;
    flood_.init(view, bandwidth, faults, threads);
  }
  void broadcast(unsigned round, SoaBroadcasts& out) override {
    flood_.broadcast(round, out);
    if (round == round_) out.set_bits(vertex_, 0, bandwidth_ + 1);
  }
  void receive(unsigned round, const SoaBroadcasts& in) override { flood_.receive(round, in); }
  bool all_finished() const override { return flood_.all_finished(); }
  bool decision() const override { return flood_.decision(); }
  std::uint64_t label_of(VertexId v) const override { return flood_.label_of(v); }
  std::size_t state_bytes() const override { return flood_.state_bytes(); }

 private:
  SoaMinIdFlood flood_;
  VertexId vertex_;
  unsigned round_;
  unsigned bandwidth_ = 1;
};

TEST(SoaRoundEngine, BandwidthViolationCarriesDigestVertexAndRound) {
  ImplicitSpec spec;
  spec.n = 12;
  spec.family = ImplicitFamily::kTwoCycle;
  spec.seed = 5;
  const unsigned bw = flood_bandwidth(spec.n);
  const InstanceView view(spec);
  const BccInstance mat = view.to_explicit();

  SoaRoundEngine engine;
  for (const InstanceView& v : {view, InstanceView(&mat)}) {
    OvershootingFlood program(5, 3);
    try {
      engine.run(v, bw, program, SoaMinIdFlood::rounds_needed(spec.n));
      ADD_FAILURE() << "expected a BandwidthViolationError";
    } catch (const BandwidthViolationError& e) {
      EXPECT_EQ(e.context().instance_digest, v.digest());
      EXPECT_EQ(e.context().vertex, 5);
      EXPECT_EQ(e.context().round, 3);
    }
    EXPECT_FALSE(engine.running());
  }
  EXPECT_NE(view.digest(), mat.digest());  // both representations were named

  // The engine stays usable: a clean flood matches a fresh engine's.
  SoaMinIdFlood reused_program;
  const SoaRunResult reused =
      engine.run(view, bw, reused_program, SoaMinIdFlood::rounds_needed(spec.n));
  const SoaOutcome fresh = run_soa(view, bw, 1, nullptr);
  EXPECT_EQ(reused.labels_digest, fresh.result.labels_digest);
  EXPECT_EQ(reused.total_bits_broadcast, fresh.result.total_bits_broadcast);
}

// ---- fault equivalence ------------------------------------------------------

TEST(SoaEquivalence, FlipAndByzantineFaultsReplayIdentically) {
  ImplicitSpec spec;
  spec.n = 12;
  spec.family = ImplicitFamily::kTwoCycle;
  spec.seed = 7;
  const unsigned bw = flood_bandwidth(spec.n);

  FaultPlan plan;
  plan.flip(3, 1, 0b0101).flip(9, 4, 0b1000).byzantine(5, 2, 0b1110, bw);

  const InstanceView view(spec);
  const BccInstance mat = view.to_explicit();
  const ExplicitOutcome ref = run_explicit(mat, bw, &plan);
  EXPECT_EQ(ref.result.faults_applied.size(), 3u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const SoaOutcome soa = run_soa(view, bw, threads, &plan);
    expect_equivalent(ref, soa, "faulted threads=" + std::to_string(threads));
  }
}

TEST(SoaEquivalence, CrashAndDropAreReadErrorsInBothEngines) {
  // Min-ID flood reads every input-edge wire each round; a crash or drop
  // puts silence on a read wire, and both engines surface that as the same
  // Message::value()/SoaBroadcasts::value() invalid_argument.
  ImplicitSpec spec;
  spec.n = 9;
  spec.family = ImplicitFamily::kOneCycle;
  const unsigned bw = flood_bandwidth(spec.n);
  const InstanceView view(spec);
  const BccInstance mat = view.to_explicit();

  for (const bool use_crash : {true, false}) {
    FaultPlan plan;
    if (use_crash) {
      plan.crash(4, 2);
    } else {
      plan.drop(4, 2);
    }
    EXPECT_THROW(run_explicit(mat, bw, &plan), std::invalid_argument) << use_crash;
    EXPECT_THROW(run_soa(view, bw, 1, &plan), std::invalid_argument) << use_crash;
  }
}

TEST(SoaEquivalence, ExactModeMatchesFrontierModeOnTheWire) {
  // A byzantine event that forges exactly what the vertex would broadcast
  // anyway (vertex 0 holds the global-minimum ID, so its label is 0 in
  // every round) leaves the wire unchanged but forces the SoA program onto
  // the dense exact path — so this pins frontier execution to the dense
  // computation through the transcript digest.
  ImplicitSpec spec;
  spec.n = 12;
  spec.family = ImplicitFamily::kMultiCycle;
  spec.cycles = 3;
  const unsigned bw = flood_bandwidth(spec.n);
  const InstanceView view(spec);

  FaultPlan noop;
  noop.byzantine(0, 1, 0, bw);

  const SoaOutcome frontier = run_soa(view, bw, 1, nullptr);
  const SoaOutcome exact = run_soa(view, bw, 1, &noop);
  EXPECT_EQ(frontier.result.transcript_digest, exact.result.transcript_digest);
  EXPECT_EQ(frontier.result.total_bits_broadcast, exact.result.total_bits_broadcast);
  EXPECT_EQ(frontier.labels, exact.labels);
  EXPECT_EQ(frontier.result.decision, exact.result.decision);
  // The injector audits only events that changed the wire, so a forged
  // message equal to the genuine one leaves the log empty.
  EXPECT_TRUE(exact.result.faults_applied.empty());
}

// ---- thread invariance at mid scale -----------------------------------------

TEST(SoaEquivalence, LabelsDigestIsThreadInvariantAtTwentyThousand) {
  ImplicitSpec spec;
  spec.n = 20000;
  spec.family = ImplicitFamily::kTwoCycle;
  spec.seed = 3;
  const InstanceView view(spec);
  const unsigned bw = flood_bandwidth(spec.n);

  SoaRunResult serial;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SoaMinIdFlood program;
    SoaRoundEngine engine;
    SoaRunOptions options;
    options.threads = threads;
    const SoaRunResult result =
        engine.run(view, bw, program, SoaMinIdFlood::rounds_needed(spec.n), options);
    if (threads == 1) {
      serial = result;
      EXPECT_FALSE(result.decision);
      EXPECT_EQ(program.num_components(), 2u);
      continue;
    }
    EXPECT_EQ(result.labels_digest, serial.labels_digest) << threads;
    EXPECT_EQ(result.decision, serial.decision) << threads;
    EXPECT_EQ(result.rounds_executed, serial.rounds_executed) << threads;
    EXPECT_EQ(result.total_bits_broadcast, serial.total_bits_broadcast) << threads;
  }
}

// ---- scale smoke ------------------------------------------------------------

TEST(SoaScale, HundredThousandVerticesStayLinearInMemory) {
  ImplicitSpec spec;
  spec.n = 100000;
  spec.family = ImplicitFamily::kTwoCycle;
  spec.seed = 2019;
  const InstanceView view(spec);
  const unsigned bw = flood_bandwidth(spec.n);

  SoaMinIdFlood program;
  SoaRoundEngine engine;
  SoaRunOptions options;
  options.require_all_finished = true;
  const SoaRunResult result =
      engine.run(view, bw, program, SoaMinIdFlood::rounds_needed(spec.n), options);

  EXPECT_TRUE(result.all_finished);
  EXPECT_FALSE(result.decision);  // two components
  EXPECT_EQ(program.num_components(), 2u);
  EXPECT_EQ(result.rounds_executed, spec.n);
  // O(n) memory: outbox + program state together stay under 200 bytes per
  // vertex (an explicit instance's wiring alone would be 40 GB here).
  EXPECT_LT(result.stats.peak_buffer_bytes, 200u * spec.n);
}

// ---- BatchRunner ------------------------------------------------------------

TEST(SoaBatch, RunImplicitIsThreadCountInvariantAndMatchesSerialEngine) {
  std::vector<SoaBatchJob> jobs;
  for (const ImplicitSpec& spec : equivalence_specs()) {
    SoaBatchJob job;
    job.spec = spec;
    job.factory = soa_min_id_flood_factory();
    job.bandwidth = flood_bandwidth(spec.n);
    job.max_rounds = SoaMinIdFlood::rounds_needed(spec.n);
    job.digest_transcript = true;
    jobs.push_back(std::move(job));
  }

  const std::vector<SoaRunResult> serial = BatchRunner(1).run_implicit(jobs);
  const std::vector<SoaRunResult> parallel = BatchRunner(4).run_implicit(jobs);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(parallel.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string context = context_of(jobs[i].spec);
    // Batch output matches a hand-driven engine on the same spec...
    const SoaOutcome direct = run_soa(InstanceView(jobs[i].spec), jobs[i].bandwidth, 1, nullptr);
    EXPECT_EQ(serial[i].transcript_digest, direct.result.transcript_digest) << context;
    EXPECT_EQ(serial[i].labels_digest, direct.result.labels_digest) << context;
    EXPECT_EQ(serial[i].decision, direct.result.decision) << context;
    // ...and is invariant under the worker pool width.
    EXPECT_EQ(parallel[i].transcript_digest, serial[i].transcript_digest) << context;
    EXPECT_EQ(parallel[i].labels_digest, serial[i].labels_digest) << context;
    EXPECT_EQ(parallel[i].rounds_executed, serial[i].rounds_executed) << context;
    EXPECT_EQ(parallel[i].total_bits_broadcast, serial[i].total_bits_broadcast) << context;
  }
}

}  // namespace
}  // namespace bcclb
