// Figure 1, executed: port-preserving crossings and indistinguishability.
//
// Builds a KT-0 one-cycle instance, performs the Definition 3.3 crossing on
// two independent input edges, and demonstrates (a) every vertex's local
// port view is untouched, and (b) Lemma 3.4 — when the crossed edges'
// endpoints broadcast identical sequences, no vertex can tell the connected
// instance from the disconnected one, even though one is a single cycle and
// the other is two disjoint cycles.
#include <cstdio>
#include <numeric>

#include "bcc_lb.h"

using namespace bcclb;

namespace {

void describe(const char* name, const BccInstance& inst) {
  const CycleStructure cs = CycleStructure::from_graph(inst.input());
  std::printf("%s: %zu cycle(s):", name, cs.num_cycles());
  for (const auto& cycle : cs.cycles()) {
    std::printf(" (");
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      std::printf("%s%u", i ? " " : "", cycle[i]);
    }
    std::printf(")");
  }
  std::printf("  [%s]\n", is_connected(inst.input()) ? "connected" : "DISCONNECTED");
}

}  // namespace

int main() {
  std::printf("Port-preserving crossing demo (Definition 3.3 / Figure 1)\n");
  std::printf("=========================================================\n\n");

  const std::size_t n = 10;
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  const CycleStructure one_cycle = CycleStructure::single_cycle(order);
  Rng rng(1);
  const BccInstance instance = random_kt0_instance(one_cycle, rng);

  // Cross edges e1 = (0,1) and e2 = (5,6) — independent on the 10-cycle.
  const DirectedEdge e1{0, 1}, e2{5, 6};
  const BccInstance crossed = port_preserving_crossing(instance, e1, e2);

  describe("I          ", instance);
  describe("I(e1, e2)  ", crossed);

  std::printf("\nLocal views after the crossing (input ports per vertex):\n");
  bool all_same = true;
  for (VertexId v = 0; v < n; ++v) {
    const auto before = instance.input_ports(v);
    const auto after = crossed.input_ports(v);
    all_same = all_same && (before == after);
    std::printf("  vertex %u: ports {%u, %u} -> {%u, %u}%s\n", v, before[0], before[1],
                after[0], after[1], before == after ? "" : "   <-- CHANGED");
  }
  std::printf("=> every local port view preserved: %s\n", all_same ? "yes" : "NO");

  // Lemma 3.4 with a silent algorithm: all endpoints trivially share the
  // same (empty) broadcast sequences, so t rounds reveal nothing.
  const unsigned t = 4;
  const auto factory = two_cycle_adversary_factory(AdversaryKind::kSilent, t, always_yes_rule());
  RoundEngine engine;
  const Transcript tr1 = engine.run(instance, 1, factory, t).transcript;
  const Transcript tr2 = engine.run(crossed, 1, factory, t).transcript;
  std::size_t equal = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (vertex_state_signature(instance, tr1, v) == vertex_state_signature(crossed, tr2, v)) {
      ++equal;
    }
  }
  std::printf(
      "\nLemma 3.4 check after %u rounds of a silent algorithm:\n"
      "  %zu / %zu vertex states identical across I and I(e1, e2)\n",
      t, equal, n);

  // An algorithm that actually talks: the echo adversary pushes bits along
  // the cycle; crossing edges with different labels becomes detectable.
  const auto echo = two_cycle_adversary_factory(AdversaryKind::kEcho, t, always_yes_rule());
  const Transcript te1 = engine.run(instance, 1, echo, t).transcript;
  const Transcript te2 = engine.run(crossed, 1, echo, t).transcript;
  std::size_t echo_equal = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (vertex_state_signature(instance, te1, v) == vertex_state_signature(crossed, te2, v)) {
      ++echo_equal;
    }
  }
  std::printf(
      "  with the echo adversary (labels differ): %zu / %zu identical —\n"
      "  information must flow Ω(log n) rounds before crossings become visible.\n",
      echo_equal, n);

  std::printf(
      "\nThis is the engine of Theorem 3.1: a YES instance and a NO instance that\n"
      "no o(log n)-round BCC(1) KT-0 algorithm can tell apart.\n");
  return 0;
}
