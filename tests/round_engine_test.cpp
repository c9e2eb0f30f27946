// RoundEngine edge cases: exception safety and error context on bandwidth
// violations, the bandwidth check on the post-fault wire, early stop on
// crash-stopped vertices, round limits with unfinished vertices, buffer
// reuse across heterogeneous runs, and the n = 2 minimal instance.
#include <gtest/gtest.h>

#include <memory>

#include "bcc/algorithms/boruvka.h"
#include "bcc/algorithms/min_id_flood.h"
#include "bcc/faults.h"
#include "bcc/round_engine.h"
#include "common/errors.h"
#include "common/random.h"
#include "fixtures.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

// Broadcasts 1 bit in round 0, then `width` bits from round 1 on — lets a
// test trip the bandwidth check mid-run, after the engine has already staged
// a full round. Never finishes on its own.
class WidthRampAlgorithm final : public VertexAlgorithm {
 public:
  explicit WidthRampAlgorithm(unsigned width) : width_(width) {}
  void init(const LocalView&) override {}
  Message broadcast(unsigned round) override {
    return round == 0 ? Message::one_bit(true) : Message::bits((1u << width_) - 1, width_);
  }
  void receive(unsigned, std::span<const Message>) override {}
  bool finished() const override { return false; }
  bool decide() const override { return true; }

 private:
  unsigned width_;
};

AlgorithmFactory width_ramp_factory(unsigned width) {
  return [width] { return std::make_unique<WidthRampAlgorithm>(width); };
}

// Broadcasts its lowest ID bit forever; finished() is always false, so runs
// only stop at the round limit.
class NeverFinishesAlgorithm final : public VertexAlgorithm {
 public:
  void init(const LocalView& view) override { bit_ = (view.id & 1) != 0; }
  Message broadcast(unsigned) override { return Message::one_bit(bit_); }
  void receive(unsigned, std::span<const Message>) override {}
  bool finished() const override { return false; }
  bool decide() const override { return false; }

 private:
  bool bit_ = false;
};

AlgorithmFactory never_finishes_factory() {
  return [] { return std::make_unique<NeverFinishesAlgorithm>(); };
}

TEST(RoundEngine, BandwidthViolationThrowsAndEngineStaysUsable) {
  Rng rng(7);
  const BccInstance instance = BccInstance::kt1(random_gnp(8, 0.5, rng));

  RoundEngine engine;
  // Round 0 fits in b = 1; round 1 broadcasts 3 bits and must throw.
  EXPECT_THROW(engine.run(instance, 1, width_ramp_factory(3), 10), std::invalid_argument);
  EXPECT_FALSE(engine.running());

  // The error names the instance, the first oversized vertex and the round.
  try {
    engine.run(instance, 1, width_ramp_factory(3), 10);
    ADD_FAILURE() << "expected a BandwidthViolationError";
  } catch (const BandwidthViolationError& e) {
    EXPECT_EQ(e.context().instance_digest, instance.digest());
    EXPECT_EQ(e.context().vertex, 0);
    EXPECT_EQ(e.context().round, 1);
  }
  EXPECT_FALSE(engine.running());

  // The engine must be immediately reusable and produce results identical to
  // a fresh engine's: the throw may not leave stale rounds, vertices or
  // counters behind in the reused buffers.
  RoundEngine fresh;
  const unsigned cap = MinIdFloodAlgorithm::rounds_needed(8);
  const RunResult reused = engine.run(instance, 3, min_id_flood_factory(), cap);
  const RunResult baseline = fresh.run(instance, 3, min_id_flood_factory(), cap);
  EXPECT_EQ(reused.rounds_executed, baseline.rounds_executed);
  EXPECT_EQ(reused.decision, baseline.decision);
  EXPECT_EQ(reused.total_bits_broadcast, baseline.total_bits_broadcast);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_EQ(reused.transcript.sent_string(v), baseline.transcript.sent_string(v));
  }
}

TEST(RoundEngine, RepeatedViolationsNeverWedgeTheEngine) {
  Rng rng(11);
  const BccInstance instance = BccInstance::kt1(random_gnp(6, 0.5, rng));
  RoundEngine engine;
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(engine.run(instance, 1, width_ramp_factory(2), 5), std::invalid_argument);
    EXPECT_FALSE(engine.running());
  }
  const RunResult ok =
      engine.run(instance, 3, min_id_flood_factory(), MinIdFloodAlgorithm::rounds_needed(6));
  EXPECT_TRUE(ok.all_finished);
}

TEST(RoundEngine, BandwidthIsCheckedOnThePostFaultWire) {
  Rng rng(31);
  const BccInstance instance = BccInstance::kt1(random_gnp(5, 0.5, rng));
  RoundEngine engine;

  // Every round-1 broadcast is 3 bits wide at b = 1, but drops (and a crash)
  // silence all of them before they reach the wire: nothing oversized is
  // delivered, so the run completes.
  FaultPlan silenced;
  for (VertexId v = 0; v < 4; ++v) silenced.drop(v, 1);
  silenced.crash(4, 1);
  RunOptions options;
  options.faults = &silenced;
  const RunResult r = engine.run(instance, 1, width_ramp_factory(3), 2, options);
  EXPECT_EQ(r.rounds_executed, 2u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(r.transcript.sent(v, 0), Message::one_bit(true)) << v;
    EXPECT_TRUE(r.transcript.sent(v, 1).is_silent()) << v;
  }
  EXPECT_EQ(r.total_bits_broadcast, 5u);
  EXPECT_EQ(r.faults_applied.size(), 5u);

  // Leave vertex 3's broadcast on the wire and the run throws, naming it.
  FaultPlan partial;
  for (const VertexId v : {0u, 1u, 2u, 4u}) partial.drop(v, 1);
  options.faults = &partial;
  try {
    engine.run(instance, 1, width_ramp_factory(3), 2, options);
    ADD_FAILURE() << "expected a BandwidthViolationError";
  } catch (const BandwidthViolationError& e) {
    EXPECT_EQ(e.context().instance_digest, instance.digest());
    EXPECT_EQ(e.context().vertex, 3);
    EXPECT_EQ(e.context().round, 1);
  }
  EXPECT_FALSE(engine.running());
}

TEST(RoundEngine, CrashStoppedVerticesCountAsFinished) {
  // NeverFinishes vertices stop only at the round limit — unless crashed. A
  // crash-stopped vertex counts as finished, so the run stops at the round
  // the last vertex crashes in.
  Rng rng(29);
  const BccInstance instance = BccInstance::kt1(random_gnp(6, 0.5, rng));
  FaultPlan plan;
  for (VertexId v = 0; v < 6; ++v) plan.crash(v, v < 3 ? 2 : 4);
  RunOptions options;
  options.faults = &plan;
  options.require_all_finished = true;

  RoundEngine engine;
  const RunResult r = engine.run(instance, 1, never_finishes_factory(), 10, options);
  EXPECT_EQ(r.rounds_executed, 4u);
  EXPECT_TRUE(r.all_finished);
  EXPECT_EQ(r.crashed_vertices, (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(r.transcript.num_rounds(), 4u);
  // Rounds 0-1: six 1-bit broadcasts; rounds 2-3: vertices 0-2 are silent.
  EXPECT_EQ(r.total_bits_broadcast, 2u * 6u + 2u * 3u);

  // Fault-free, the same run burns the whole cap.
  const RunResult capped = engine.run(instance, 1, never_finishes_factory(), 10);
  EXPECT_EQ(capped.rounds_executed, 10u);
  EXPECT_FALSE(capped.all_finished);
}

TEST(RoundEngine, RoundLimitWithUnfinishedVertices) {
  Rng rng(3);
  const BccInstance instance = BccInstance::kt1(random_gnp(5, 0.6, rng));
  RoundEngine engine;
  const RunResult r = engine.run(instance, 1, never_finishes_factory(), 7);
  EXPECT_EQ(r.rounds_executed, 7u);
  EXPECT_FALSE(r.all_finished);
  EXPECT_FALSE(r.decision);
  // The transcript is sized to the rounds actually executed — exactly 7.
  EXPECT_EQ(r.transcript.num_rounds(), 7u);
  EXPECT_EQ(r.transcript.num_vertices(), 5u);
  // Every vertex broadcast one bit per round.
  EXPECT_EQ(r.total_bits_broadcast, 7u * 5u);
  EXPECT_EQ(r.stats.rounds, 7u);
  EXPECT_EQ(r.stats.total_bits, r.total_bits_broadcast);
}

TEST(RoundEngine, ZeroRoundLimitExecutesNothing) {
  Rng rng(5);
  const BccInstance instance = BccInstance::kt1(random_gnp(4, 0.5, rng));
  RoundEngine engine;
  const RunResult r = engine.run(instance, 1, never_finishes_factory(), 0);
  EXPECT_EQ(r.rounds_executed, 0u);
  EXPECT_EQ(r.transcript.num_rounds(), 0u);
  EXPECT_EQ(r.total_bits_broadcast, 0u);
}

TEST(RoundEngine, MinimalTwoVertexInstance) {
  const BccInstance instance = BccInstance::kt1(path_graph(2));
  RoundEngine engine;
  const RunResult r =
      engine.run(instance, 1, min_id_flood_factory(), MinIdFloodAlgorithm::rounds_needed(2));
  EXPECT_TRUE(r.all_finished);
  EXPECT_TRUE(r.decision);  // a single edge is connected
}

TEST(RoundEngine, BuffersGrowAcrossRunsButRemainCorrect) {
  // Alternate between a small and a larger instance on one engine; results
  // must match fresh-engine runs each time (buffers are reused, never stale).
  Rng rng(19);
  const BccInstance small = BccInstance::kt1(random_gnp(4, 0.7, rng));
  const BccInstance large = BccInstance::kt1(random_gnp(12, 0.4, rng));
  RoundEngine engine;
  for (int iter = 0; iter < 2; ++iter) {
    for (const BccInstance* inst : {&small, &large}) {
      const std::size_t n = inst->num_vertices();
      const unsigned cap = BoruvkaAlgorithm::max_rounds(n, 2);
      RoundEngine fresh;
      const RunResult a = engine.run(*inst, 2, boruvka_factory(), cap);
      const RunResult b = fresh.run(*inst, 2, boruvka_factory(), cap);
      EXPECT_EQ(a.decision, b.decision);
      EXPECT_EQ(a.rounds_executed, b.rounds_executed);
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(a.transcript.sent_string(v), b.transcript.sent_string(v));
      }
    }
  }
  EXPECT_GT(engine.buffer_bytes(), 0u);
}

TEST(RoundEngine, ReserveIsIdempotentWithRun) {
  Rng rng(23);
  const BccInstance instance = BccInstance::kt1(random_gnp(9, 0.5, rng));
  RoundEngine reserved;
  reserved.reserve(9, 16);
  RoundEngine lazy;
  const unsigned cap = MinIdFloodAlgorithm::rounds_needed(9);
  const RunResult a = reserved.run(instance, 4, min_id_flood_factory(), cap);
  const RunResult b = lazy.run(instance, 4, min_id_flood_factory(), cap);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.total_bits_broadcast, b.total_bits_broadcast);
  for (VertexId v = 0; v < 9; ++v) {
    EXPECT_EQ(a.transcript.sent_string(v), b.transcript.sent_string(v));
  }
}

}  // namespace
}  // namespace bcclb
