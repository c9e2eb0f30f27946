// Cross-cutting property and failure-injection tests: randomized invariants
// that individual module suites do not cover.
#include <gtest/gtest.h>

#include <set>

#include "bcc/algorithms/two_cycle_adversaries.h"
#include "bcc/round_engine.h"
#include "common/bigint.h"
#include "common/random.h"
#include "comm/protocol.h"
#include "crossing/crossing.h"
#include "crossing/matching.h"
#include "crossing/ported_instance.h"
#include "graph/components.h"
#include "graph/generators.h"

namespace bcclb {
namespace {

// ---- Crossing walks ----------------------------------------------------------

TEST(CrossingWalk, RandomCrossingSequencesPreserveInstanceInvariants) {
  // Apply a long random sequence of port-preserving crossings; after every
  // step the wiring must stay a valid clique wiring, the input graph
  // 2-regular, and every vertex's local port view must equal the original.
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 10;
    const auto cs = random_one_cycle(n, rng);
    BccInstance inst = random_kt0_instance(cs, rng);
    std::vector<std::vector<Port>> original_views;
    for (VertexId v = 0; v < n; ++v) original_views.push_back(inst.input_ports(v));

    int applied = 0;
    for (int step = 0; step < 40 && applied < 15; ++step) {
      const auto structure = CycleStructure::from_graph(inst.input());
      const auto edges = structure.directed_edges();
      const auto& e1 = edges[rng.next_below(edges.size())];
      const auto& e2 = edges[rng.next_below(edges.size())];
      if (!instance_edges_independent(inst, e1, e2)) continue;
      inst = port_preserving_crossing(inst, e1, e2);
      ++applied;

      EXPECT_TRUE(inst.input().is_regular(2));
      // Wiring validity is enforced by the Wiring constructor; local views:
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(inst.input_ports(v), original_views[v]) << "step " << step;
      }
    }
    EXPECT_GE(applied, 10);
  }
}

TEST(CrossingWalk, ParityOfCycleCountChangesByOne) {
  // Each crossing either splits one cycle or merges two: the cycle count
  // changes by exactly ±1.
  Rng rng(2);
  BccInstance inst = random_kt0_instance(random_one_cycle(12, rng), rng);
  for (int step = 0; step < 30; ++step) {
    const auto before = CycleStructure::from_graph(inst.input());
    const auto edges = before.directed_edges();
    const auto& e1 = edges[rng.next_below(edges.size())];
    const auto& e2 = edges[rng.next_below(edges.size())];
    if (!instance_edges_independent(inst, e1, e2)) continue;
    inst = port_preserving_crossing(inst, e1, e2);
    const auto after = CycleStructure::from_graph(inst.input());
    const auto diff = static_cast<std::int64_t>(after.num_cycles()) -
                      static_cast<std::int64_t>(before.num_cycles());
    EXPECT_TRUE(diff == 1 || diff == -1) << "step " << step;
  }
}

// ---- Polygamous Hall (Theorem 2.1) as an equivalence --------------------------

TEST(PolygamousHall, MatchingExistsIffExpansionHolds) {
  // On small random bipartite graphs, check by exhaustive subsets:
  // a saturating k-matching exists iff |N(S)| >= k|S| for every S ⊆ L of
  // positive-degree vertices — Theorem 2.1 plus the converse (Hall).
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t left = 2 + rng.next_below(5);   // <= 6
    const std::size_t right = 3 + rng.next_below(10);  // <= 12
    const unsigned k = 1 + static_cast<unsigned>(rng.next_below(3));
    std::vector<std::vector<std::uint32_t>> adj(left);
    for (auto& nbrs : adj) {
      for (std::uint32_t r = 0; r < right; ++r) {
        if (rng.next_bernoulli(0.35)) nbrs.push_back(r);
      }
    }
    // Exhaustive Hall condition over nonempty subsets of positive-degree
    // left vertices.
    std::vector<std::size_t> positive;
    for (std::size_t l = 0; l < left; ++l) {
      if (!adj[l].empty()) positive.push_back(l);
    }
    bool hall = true;
    for (std::uint32_t mask = 1; mask < (1u << positive.size()); ++mask) {
      std::set<std::uint32_t> nbrs;
      std::size_t size = 0;
      for (std::size_t i = 0; i < positive.size(); ++i) {
        if (mask & (1u << i)) {
          ++size;
          nbrs.insert(adj[positive[i]].begin(), adj[positive[i]].end());
        }
      }
      if (nbrs.size() < k * size) hall = false;
    }
    EXPECT_EQ(has_saturating_k_matching(adj, right, k), hall)
        << "trial " << trial << " k=" << k;
  }
}

// ---- Protocol framework --------------------------------------------------------

TEST(ProtocolFramework, MultiRoundPingPong) {
  // Alice streams 4-bit counters; Bob echoes them back incremented; both
  // finish after 5 exchanges with consistent transcripts.
  class Pinger final : public PartyAlgorithm {
   public:
    std::vector<bool> send(unsigned round) override {
      std::vector<bool> bits;
      append_uint(bits, round, 4);
      return bits;
    }
    void receive(unsigned round, const std::vector<bool>& msg) override {
      std::size_t at = 0;
      EXPECT_EQ(read_uint(msg, at, 4), round + 1);
      done_ = round >= 4;
    }
    bool finished() const override { return done_; }

   private:
    bool done_ = false;
  };
  class Ponger final : public PartyAlgorithm {
   public:
    std::vector<bool> send(unsigned) override {
      std::vector<bool> bits;
      append_uint(bits, last_ + 1, 4);
      done_ = last_ >= 4;
      return bits;
    }
    void receive(unsigned, const std::vector<bool>& msg) override {
      std::size_t at = 0;
      last_ = read_uint(msg, at, 4);
    }
    bool finished() const override { return done_; }

   private:
    std::uint64_t last_ = 0;
    bool done_ = false;
  };
  Pinger alice;
  Ponger bob;
  const ProtocolResult res = run_protocol(alice, bob, 10);
  EXPECT_EQ(res.rounds, 5u);
  EXPECT_EQ(res.bits_alice_to_bob, 20u);
  EXPECT_EQ(res.bits_bob_to_alice, 20u);
  // Transcript holds 10 messages separated by '|'.
  EXPECT_EQ(std::count(res.transcript.begin(), res.transcript.end(), '|'), 10);
}

// ---- BigUint fuzz ---------------------------------------------------------------

TEST(BigUintFuzz, AgreesWithNativeArithmeticBelow64Bits) {
  Rng rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t a = rng.next_u64() >> (1 + rng.next_below(32));
    const std::uint64_t b = rng.next_u64() >> (1 + rng.next_below(32));
    const BigUint ba(a), bb(b);
    EXPECT_EQ((ba + bb).to_u64(), a + b);
    if (a >= b) {
      EXPECT_EQ((ba - bb).to_u64(), a - b);
    }
    const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
    const BigUint bprod = ba * bb;
    if (prod <= UINT64_MAX) {
      EXPECT_EQ(bprod.to_u64(), static_cast<std::uint64_t>(prod));
    } else {
      EXPECT_FALSE(bprod.fits_u64());
    }
    const std::uint32_t d = 1 + static_cast<std::uint32_t>(rng.next_below(1000));
    EXPECT_EQ((BigUint(a) * d).divided_by_small(d).to_u64(), a);
  }
}

TEST(BigUintFuzz, AddSubtractRoundTripOnLargeValues) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    BigUint a(1), b(1);
    for (int i = 0; i < 10; ++i) {
      a *= static_cast<std::uint32_t>(1 + rng.next_below(1u << 30));
      b *= static_cast<std::uint32_t>(1 + rng.next_below(1u << 30));
    }
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a * 7u).divided_by_small(7), a);
    EXPECT_EQ(BigUint::from_decimal(a.to_decimal()), a);
  }
}

TEST(BigUintFuzz, ExactDivisionRejectsInexact) {
  EXPECT_THROW(BigUint(7).divided_by_small(2), std::invalid_argument);
  EXPECT_THROW(BigUint(7).divided_by_small(0), std::invalid_argument);
  EXPECT_EQ(BigUint(0).divided_by_small(5), BigUint(0));
}

// ---- Simulator failure injection ------------------------------------------------

TEST(FailureInjection, ThrowingAlgorithmPropagates) {
  class Bomb final : public VertexAlgorithm {
   public:
    void init(const LocalView&) override {}
    Message broadcast(unsigned round) override {
      if (round == 1) throw std::runtime_error("boom");
      return Message::silent();
    }
    void receive(unsigned, std::span<const Message>) override {}
    bool finished() const override { return false; }
    bool decide() const override { return true; }
  };
  Rng rng(6);
  const BccInstance inst = BccInstance::kt1(random_one_cycle(6, rng).to_graph());
  RoundEngine engine;
  EXPECT_THROW(engine.run(inst, 1, [] { return std::make_unique<Bomb>(); }, 3),
               std::runtime_error);
}

TEST(FailureInjection, NullFactoryRejected) {
  Rng rng(7);
  const BccInstance inst = BccInstance::kt1(random_one_cycle(6, rng).to_graph());
  RoundEngine engine;
  EXPECT_THROW(
      engine.run(inst, 1, []() -> std::unique_ptr<VertexAlgorithm> { return nullptr; }, 1),
      std::logic_error);
}

TEST(FailureInjection, TruncatedTranscriptQueriesRejected) {
  Rng rng(8);
  const BccInstance inst = BccInstance::kt1(random_one_cycle(6, rng).to_graph());
  RoundEngine engine;
  const RunResult r = engine.run(
      inst, 1, two_cycle_adversary_factory(AdversaryKind::kSilent, 2, always_yes_rule()), 2);
  EXPECT_THROW(r.transcript.sent(0, 2), std::invalid_argument);   // round out of range
  EXPECT_THROW(r.transcript.sent(6, 0), std::invalid_argument);   // vertex out of range
}

}  // namespace
}  // namespace bcclb
