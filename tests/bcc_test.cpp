// Tests for the BCC(b) model: messages, wirings, instances, simulator,
// transcripts and the min-ID flooding baseline.
#include <gtest/gtest.h>

#include "bcc/algorithms/min_id_flood.h"
#include "bcc/algorithms/two_cycle_adversaries.h"
#include "bcc/instance.h"
#include "bcc/message.h"
#include "bcc/round_engine.h"
#include "bcc/transcript.h"
#include "common/errors.h"
#include "common/random.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

TEST(Message, SilentAndBits) {
  const Message s = Message::silent();
  EXPECT_TRUE(s.is_silent());
  EXPECT_EQ(s.num_bits(), 0u);
  EXPECT_EQ(s.to_string(), "_");
  EXPECT_THROW(s.value(), std::invalid_argument);

  const Message m = Message::bits(0b101, 3);
  EXPECT_FALSE(m.is_silent());
  EXPECT_EQ(m.num_bits(), 3u);
  EXPECT_TRUE(m.bit(0));
  EXPECT_FALSE(m.bit(1));
  EXPECT_TRUE(m.bit(2));
  EXPECT_EQ(m.to_string(), "101");
}

TEST(Message, Validation) {
  EXPECT_THROW(Message::bits(4, 2), std::invalid_argument);
  EXPECT_THROW(Message::bits(0, 0), std::invalid_argument);
  EXPECT_THROW(Message::bits(0, 65), std::invalid_argument);
  EXPECT_THROW(Message::one_bit(true).bit(1), std::invalid_argument);
}

TEST(Wiring, Kt1LayoutIsIdOrder) {
  const Wiring w = Wiring::kt1(5);
  EXPECT_EQ(w.peer(0, 0), 1u);
  EXPECT_EQ(w.peer(0, 3), 4u);
  EXPECT_EQ(w.peer(3, 0), 0u);
  EXPECT_EQ(w.peer(3, 3), 4u);
  EXPECT_EQ(w.port_at(3, 4), 3u);
  EXPECT_EQ(w.port_at(4, 3), 3u);
}

TEST(Wiring, RandomKt0IsValidBijection) {
  Rng rng(8);
  const Wiring w = Wiring::random_kt0(9, rng);
  for (VertexId v = 0; v < 9; ++v) {
    std::vector<bool> seen(9, false);
    for (Port p = 0; p < 8; ++p) {
      const VertexId u = w.peer(v, p);
      EXPECT_NE(u, v);
      EXPECT_FALSE(seen[u]);
      seen[u] = true;
      EXPECT_EQ(w.port_at(v, u), p);
    }
  }
}

TEST(Wiring, RejectsBadTables) {
  // Row not a bijection onto V \ {v}.
  EXPECT_THROW(Wiring({{1, 1}, {0, 2}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(Wiring({{0, 2}, {0, 2}, {0, 1}}), std::invalid_argument);  // self port
  EXPECT_THROW(Wiring({{1}, {0, 2}, {0, 1}}), std::invalid_argument);     // short row
}

TEST(Instance, InputPortsMatchInputEdges) {
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const BccInstance inst = BccInstance::kt1(g);
  EXPECT_EQ(inst.input_ports(0), std::vector<Port>{1});      // port 1 of 0 -> 2
  EXPECT_EQ(inst.input_ports(2), (std::vector<Port>{0, 2}));  // to 0 and 3
  EXPECT_TRUE(inst.input_ports(1).empty());
}

TEST(Instance, UniqueIdsEnforced) {
  Graph g(3);
  EXPECT_THROW(BccInstance(Wiring::kt1(3), g, KnowledgeMode::kKT1, {1, 1, 2}),
               std::invalid_argument);
}

TEST(Simulator, BandwidthEnforced) {
  // An algorithm that broadcasts 2 bits under a b=1 budget must be rejected.
  class Greedy final : public VertexAlgorithm {
   public:
    void init(const LocalView&) override {}
    Message broadcast(unsigned) override { return Message::bits(3, 2); }
    void receive(unsigned, std::span<const Message>) override {}
    bool finished() const override { return false; }
    bool decide() const override { return true; }
  };
  Graph g(3);
  g.add_edge(0, 1);
  const BccInstance inst = BccInstance::kt1(g);
  RoundEngine engine;
  EXPECT_THROW(engine.run(inst, 1, [] { return std::make_unique<Greedy>(); }, 1),
               std::invalid_argument);
  // b itself must lie in [1, 64].
  for (const unsigned b : {0u, 65u}) {
    EXPECT_THROW(engine.run(inst, b, min_id_flood_factory(), 1), BandwidthViolationError)
        << "b=" << b;
  }
}

TEST(Simulator, TranscriptRecordsBroadcasts) {
  Rng rng(3);
  const auto cs = random_one_cycle(6, rng);
  const BccInstance inst = BccInstance::kt1(cs.to_graph());
  RoundEngine engine;
  const RunResult r = engine.run(
      inst, 1, two_cycle_adversary_factory(AdversaryKind::kIdBits, 3, always_yes_rule()), 3);
  EXPECT_EQ(r.rounds_executed, 3u);
  EXPECT_EQ(r.transcript.num_rounds(), 3u);
  // kIdBits: vertex v broadcasts bit t of its ID (= v).
  EXPECT_EQ(r.transcript.sent(5, 0).to_string(), "1");
  EXPECT_EQ(r.transcript.sent(5, 2).to_string(), "1");
  EXPECT_EQ(r.transcript.sent(4, 0).to_string(), "0");
  EXPECT_EQ(r.transcript.sent_string(2), "010");
  EXPECT_EQ(r.transcript.edge_label(2, 5), "010101");
}

TEST(Simulator, DeterministicAcrossRuns) {
  Rng rng(4);
  const auto cs = random_one_cycle(8, rng);
  const BccInstance inst = BccInstance::kt1(cs.to_graph());
  RoundEngine engine;
  const RunResult a = engine.run(inst, 4, min_id_flood_factory(), 8);
  const RunResult b = engine.run(inst, 4, min_id_flood_factory(), 8);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.total_bits_broadcast, b.total_bits_broadcast);
}

TEST(Simulator, DecisionIsAndOverVertices) {
  // One NO vertex makes the system answer NO. parity_rule varies by vertex.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const BccInstance inst = BccInstance::kt1(g);
  RoundEngine engine;
  const RunResult r = engine.run(
      inst, 1, two_cycle_adversary_factory(AdversaryKind::kIdBits, 2, parity_rule()), 2);
  bool all = true;
  for (bool d : r.vertex_decisions) all = all && d;
  EXPECT_EQ(r.decision, all);
}

class FloodCorrectness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FloodCorrectness, MatchesBfsOnRandomSparseGraphs) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 1);
  RoundEngine engine;
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_gnp(n, 1.5 / static_cast<double>(n), rng);
    const RunResult r = engine.run(BccInstance::kt1(g), 8, min_id_flood_factory(),
                                   MinIdFloodAlgorithm::rounds_needed(n));
    EXPECT_TRUE(r.all_finished);
    EXPECT_EQ(r.decision, is_connected(g)) << "n=" << n << " trial=" << trial;
    const auto labels = component_labels(g);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_TRUE(r.labels[v].has_value());
      EXPECT_EQ(*r.labels[v], labels[v]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FloodCorrectness, ::testing::Values(4, 8, 16, 32));

TEST(Flood, RequiresAdequateBandwidth) {
  Graph g(40);
  const BccInstance inst = BccInstance::kt1(g);
  RoundEngine engine;
  // IDs up to 39 need 6 bits.
  EXPECT_THROW(engine.run(inst, 2, min_id_flood_factory(), 40), std::invalid_argument);
}

TEST(Flood, WorksInKt0Too) {
  // Flooding never reads IDs behind ports, so KT-0 suffices.
  Rng rng(5);
  const auto cs = random_two_cycle(10, rng);
  const BccInstance inst = BccInstance::random_kt0(cs.to_graph(), rng);
  RoundEngine engine;
  const RunResult r = engine.run(inst, 4, min_id_flood_factory(), 10);
  EXPECT_FALSE(r.decision);  // two cycles: disconnected
}

TEST(VertexStateSignature, DiffersAcrossDifferentInputs) {
  Rng rng(6);
  const auto one = random_one_cycle(7, rng);
  const BccInstance i1 = BccInstance::kt1(one.to_graph());
  RoundEngine engine;
  const RunResult r = engine.run(i1, 4, min_id_flood_factory(), 7);
  // Same instance, same transcript: signatures are self-consistent.
  for (VertexId v = 0; v < 7; ++v) {
    EXPECT_EQ(vertex_state_signature(i1, r.transcript, v),
              vertex_state_signature(i1, r.transcript, v));
  }
}

}  // namespace
}  // namespace bcclb
