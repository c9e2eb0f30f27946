// Tests for proof-labeling schemes: the classical (root, dist) Connectivity
// scheme and the transcripts-as-labels construction ([PP17], Section 1.3).
#include <gtest/gtest.h>

#include <cmath>

#include "bcc/algorithms/min_id_flood.h"
#include "common/random.h"
#include "crossing/ported_instance.h"
#include "fixtures.h"
#include "graph/generators.h"
#include "pls/connectivity_pls.h"
#include "pls/randomized_pls.h"
#include "pls/transcript_pls.h"

namespace bcclb {
namespace {

TEST(ConnectivityPls, CompletenessOnConnectedGraphs) {
  ConnectivityPls scheme;
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_one_cycle(10, rng).to_graph();
    const BccInstance inst = BccInstance::kt1(g);
    const PlsResult r = run_pls_honest(scheme, inst);
    EXPECT_TRUE(r.accepted) << "trial " << trial;
    EXPECT_EQ(r.max_label_bits, scheme.label_bits(10));
  }
  // Paths and random connected graphs too.
  const BccInstance path = BccInstance::kt1(path_graph(17));
  EXPECT_TRUE(run_pls_honest(ConnectivityPls{}, path).accepted);
}

TEST(ConnectivityPls, WorksInKt0) {
  // The scheme never uses peer IDs — only port-attributed labels.
  ConnectivityPls scheme;
  Rng rng(2);
  const auto cs = random_one_cycle(9, rng);
  const BccInstance inst = random_kt0_instance(cs, rng);
  EXPECT_TRUE(run_pls_honest(scheme, inst).accepted);
}

TEST(ConnectivityPls, SoundnessRejectsHonestPerComponentLabels) {
  // The strongest natural cheat on a disconnected graph: honest BFS labels
  // per component. Must be rejected (two distance-0 vertices / two roots).
  ConnectivityPls scheme;
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_two_cycle(11, rng).to_graph();
    const BccInstance inst = BccInstance::kt1(g);
    EXPECT_FALSE(run_pls_honest(scheme, inst).accepted) << "trial " << trial;
  }
}

TEST(ConnectivityPls, SoundnessAgainstRandomLabelings) {
  ConnectivityPls scheme;
  Rng rng(4);
  const Graph g = random_two_cycle(10, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  EXPECT_EQ(count_fooling_labelings(scheme, inst, 300, rng), 0u);
}

TEST(ConnectivityPls, SoundnessAgainstCrossComponentDistanceCheat) {
  // A hand-crafted cheat: pretend both cycles hang off one root by giving
  // the second component distances continuing from the first. The grounding
  // check (an input neighbor at dist-1) must fire.
  const auto cs = CycleStructure::from_cycles(8, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  const BccInstance inst = BccInstance::kt1(cs.to_graph());
  ConnectivityPls scheme;
  auto labels = scheme.prove(inst);  // per-component honest labels
  // Overwrite component 2's labels: root 0, distances 4..7 (no vertex of
  // that component has a neighbor at distance 3 — its neighbors are 4..7).
  const unsigned w = 3;  // ceil_log2(8)
  auto encode = [&](std::uint64_t root, std::uint64_t dist) {
    Label l(2 * w);
    for (unsigned i = 0; i < w; ++i) {
      l[i] = (root >> i) & 1;
      l[w + i] = (dist >> i) & 1;
    }
    return l;
  };
  labels[4] = encode(0, 4);
  labels[5] = encode(0, 5);
  labels[6] = encode(0, 6);
  labels[7] = encode(0, 5);
  EXPECT_FALSE(run_pls(scheme, inst, labels).accepted);
}

TEST(ConnectivityPls, LabelBitsAreLogarithmic) {
  ConnectivityPls scheme;
  EXPECT_EQ(scheme.label_bits(8), 6u);
  EXPECT_EQ(scheme.label_bits(9), 8u);
  EXPECT_EQ(scheme.label_bits(1024), 20u);
  EXPECT_EQ(scheme.label_bits(1025), 22u);
}

TEST(ConnectivityPls, MalformedLabelsRejected) {
  ConnectivityPls scheme;
  const BccInstance inst = BccInstance::kt1(path_graph(5));
  auto labels = scheme.prove(inst);
  labels[2].pop_back();  // wrong width
  EXPECT_FALSE(run_pls(scheme, inst, labels).accepted);
}

// ---- Transcripts as labels ---------------------------------------------------

TEST(TranscriptPls, EncodingRoundTrip) {
  const std::vector<Message> sent{Message::silent(), Message::one_bit(true),
                                  Message::one_bit(false)};
  const Label label = encode_transcript(sent, 3, 1);
  EXPECT_EQ(label.size(), 6u);
  EXPECT_EQ(decode_transcript(label, 3, 1), sent);
}

TEST(TranscriptPls, HonestTranscriptsAcceptWhenAlgorithmAccepts) {
  // Min-ID flooding is a correct Connectivity algorithm; its transcripts
  // form an accepting PLS exactly on connected instances.
  Rng rng(5);
  for (int trial = 0; trial < 6; ++trial) {
    const bool connected = trial % 2 == 0;
    const Graph g = connected ? random_one_cycle(8, rng).to_graph()
                              : random_two_cycle(8, rng).to_graph();
    const BccInstance inst = BccInstance::kt1(g);
    const unsigned t = MinIdFloodAlgorithm::rounds_needed(8);
    TranscriptPls scheme(min_id_flood_factory(), t, 4);
    const PlsResult r = run_pls_honest(scheme, inst);
    EXPECT_EQ(r.accepted, connected) << "trial " << trial;
    EXPECT_EQ(scheme.label_bits(8), t * 5u);
  }
}

TEST(TranscriptPls, ForgedTranscriptsAreCaught) {
  // Flip a bit of one vertex's label: either that vertex's replay mismatches
  // or a neighbor's replay diverges and rejects.
  Rng rng(6);
  const Graph g = random_one_cycle(8, rng).to_graph();
  const BccInstance inst = BccInstance::kt1(g);
  const unsigned t = MinIdFloodAlgorithm::rounds_needed(8);
  TranscriptPls scheme(min_id_flood_factory(), t, 4);
  auto labels = scheme.prove(inst);
  ASSERT_TRUE(run_pls(scheme, inst, labels).accepted);
  std::size_t caught = 0, attempts = 0;
  for (std::size_t bit = 0; bit < labels[3].size(); ++bit) {
    auto forged = labels;
    forged[3][bit] = !forged[3][bit];
    ++attempts;
    if (!run_pls(scheme, inst, forged).accepted) ++caught;
  }
  // Every forgery must be caught: vertex 3's own replay pins its label
  // exactly, and silence-flag flips corrupt neighbors' inboxes.
  EXPECT_EQ(caught, attempts);
}

TEST(TranscriptPls, RealizesThePp17Reduction) {
  // Verification complexity = t * (b + 1): an o(log n)-round BCC(1)
  // algorithm would give an o(log n) PLS. Flooding gives t = n, i.e. a
  // Θ(n)-bit scheme — far above the 2 log n of ConnectivityPls, which is
  // exactly why the paper's Ω(log n) needs proof.
  TranscriptPls flood_pls(min_id_flood_factory(), 16, 4);
  ConnectivityPls direct;
  EXPECT_GT(flood_pls.label_bits(16), direct.label_bits(16));
}

// ---- Randomized PLS ([BFP15] phenomenon) --------------------------------------

TEST(RandomizedPls, CompleteOnConnectedGraphs) {
  Rng rng(51);
  const PublicCoins coins(9, 256);
  for (int trial = 0; trial < 15; ++trial) {
    const BccInstance inst = BccInstance::kt1(random_one_cycle(12, rng).to_graph());
    const auto labels = prove_randomized_connectivity(inst);
    const auto res = run_randomized_pls(inst, labels, 4, coins);
    EXPECT_TRUE(res.accepted) << "trial " << trial;
    EXPECT_EQ(res.broadcast_bits, 9u);  // 2c + 1
  }
}

TEST(RandomizedPls, RejectsDisconnectedHonestCheatAtModerateC) {
  Rng rng(52);
  std::size_t rejected = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const BccInstance inst = BccInstance::kt1(random_two_cycle(12, rng).to_graph());
    const auto labels = prove_randomized_connectivity(inst);
    const PublicCoins coins(100 + t, 256);
    if (!run_randomized_pls(inst, labels, 8, coins).accepted) ++rejected;
  }
  // Failure only via an 8-bit root-hash collision: prob ~ 1/256 per trial.
  EXPECT_GE(rejected, static_cast<std::size_t>(trials - 1));
}

TEST(RandomizedPls, FalseAcceptRateTracksTwoToMinusC) {
  // The only collision-escapable cheat: a single lying neighbor copy that
  // grounds an otherwise impossible distance chain. (Double distance-0
  // claims and mismatched roots are caught deterministically or need their
  // own collisions.) Acceptance over seeds ≈ P[pair-hash collision] = 2^-c.
  const auto cs = CycleStructure::from_cycles(8, {{0, 1, 2, 3}, {4, 5, 6, 7}});
  const BccInstance inst = BccInstance::kt1(cs.to_graph());
  auto labels = prove_randomized_connectivity(inst);
  // Rewrite component {4..7} (cycle 4-5-6-7): root 0 with distances hanging
  // off a fabricated ground: 4:(0,1), 5:(0,2), 6:(0,3), 7:(0,2); all copies
  // faithful to those labels EXCEPT 4's copy of one neighbor, which claims
  // (0, 0) to ground 4's distance.
  auto set_pair = [&](VertexId v, std::uint64_t d) { labels[v].own = {0, d}; };
  set_pair(4, 1);
  set_pair(5, 2);
  set_pair(6, 3);
  set_pair(7, 2);
  for (VertexId v = 4; v < 8; ++v) {
    const auto ports = inst.input_ports(v);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      labels[v].copies[i] = labels[inst.wiring().peer(v, ports[i])].own;
    }
  }
  labels[4].copies[0] = {0, 0};  // the single lie
  for (unsigned c : {1u, 2u, 4u}) {
    std::size_t accepted = 0;
    const int seeds = 600;
    for (int s = 0; s < seeds; ++s) {
      const PublicCoins coins(7000 + s, 256);
      if (run_randomized_pls(inst, labels, c, coins).accepted) ++accepted;
    }
    const double rate = static_cast<double>(accepted) / seeds;
    const double expect = std::pow(2.0, -static_cast<double>(c));
    EXPECT_NEAR(rate, expect, expect * 0.6 + 0.02) << "c=" << c;
  }
}

TEST(RandomizedPls, LyingCopiesAreCaught) {
  // Forge one neighbor copy: caught unless the c-bit pair hash collides.
  Rng rng(54);
  const BccInstance inst = BccInstance::kt1(random_one_cycle(10, rng).to_graph());
  auto labels = prove_randomized_connectivity(inst);
  labels[3].copies[0].dist += 5;  // inconsistent claim
  std::size_t caught = 0;
  const int seeds = 50;
  for (int s = 0; s < seeds; ++s) {
    const PublicCoins coins(400 + s, 256);
    if (!run_randomized_pls(inst, labels, 10, coins).accepted) ++caught;
  }
  EXPECT_GE(caught, static_cast<std::size_t>(seeds - 1));
}

TEST(RandomizedPls, VerificationBitsBeatDeterministicForLargeN) {
  // 2c + 1 bits vs 2 ceil(log2 n): the [BFP15]-style exponential gap.
  ConnectivityPls det;
  for (std::size_t n : {64u, 1024u}) {
    EXPECT_LT(2u * 4u + 1u, det.label_bits(n)) << n;
  }
}

TEST(RandomizedPls, InputValidation) {
  Rng rng(55);
  const BccInstance inst = BccInstance::kt1(random_one_cycle(8, rng).to_graph());
  const auto labels = prove_randomized_connectivity(inst);
  const PublicCoins coins(1, 256);
  EXPECT_THROW(run_randomized_pls(inst, labels, 0, coins), std::invalid_argument);
  EXPECT_THROW(run_randomized_pls(inst, labels, 40, coins), std::invalid_argument);
  std::vector<RandomizedLabel> wrong(labels.begin(), labels.end() - 1);
  EXPECT_THROW(run_randomized_pls(inst, wrong, 4, coins), std::invalid_argument);
}

}  // namespace
}  // namespace bcclb
