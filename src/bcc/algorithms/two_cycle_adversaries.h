// A family of t-round KT-0 BCC(1) algorithms for the TwoCycle problem.
//
// Theorems 3.1 and 3.5 quantify over *all* t-round algorithms. The E2/E4
// experiments measure two things: (a) the pigeonhole/label analysis, which
// holds for any transcript (computed directly from transcripts); and (b) the
// realized error of concrete algorithms under the hard distributions. This
// family supplies the concrete algorithms — deliberately varied broadcast
// behaviours that a smart adversary might try in the KT-0 model, all limited
// to the initial knowledge KT-0 grants (own ID, port numbers, input ports,
// public coins).
#pragma once

#include <functional>

#include "bcc/round_engine.h"

namespace bcclb {

enum class AdversaryKind {
  kSilent,      // never broadcasts
  kIdBits,      // round t broadcasts bit (t mod 64) of the own ID
  kHashedId,    // round t broadcasts bit t of a hash of the own ID
  kCoinXorId,   // public coin bit XOR own ID bit (randomized)
  kPortParity,  // parity of the two input-edge port numbers, shifted by round
  kEcho,        // round 0: ID bit; round t: XOR of the bits heard on the two
                // input ports in round t-1 (information flows along the cycle)
  kStateHash,   // the generic deterministic vertex: each round broadcasts a
                // hash bit of its entire state so far (ID + everything heard
                // on input ports) — the closest concrete stand-in for "an
                // arbitrary t-round algorithm"
};

// The decision each vertex makes after its t rounds. Receives the vertex's
// full received history on input ports (2 ports for cycle instances) plus
// its own sent history; returns the YES/NO vote. The system answer is the
// AND over vertices, per Section 1.2.
using DecisionRule = std::function<bool(const std::vector<Message>& sent,
                                        const std::vector<std::vector<Message>>& received)>;

// The always-YES rule: the natural play for an algorithm that cannot
// distinguish one-cycle from two-cycle inputs (any NO vote on the matched
// YES instance would err with probability 1/2 under the hard distribution).
DecisionRule always_yes_rule();

// Votes NO iff any disagreement pattern appears in the received bits —
// a representative nontrivial rule.
DecisionRule parity_rule();

class TwoCycleAdversary final : public VertexAlgorithm {
 public:
  TwoCycleAdversary(AdversaryKind kind, unsigned rounds, DecisionRule rule);

  void init(const LocalView& view) override;
  Message broadcast(unsigned round) override;
  void receive(unsigned round, std::span<const Message> inbox) override;
  bool finished() const override;
  bool decide() const override;

 private:
  AdversaryKind kind_;
  unsigned rounds_;
  DecisionRule rule_;
  LocalView view_;
  unsigned done_rounds_ = 0;
  std::vector<Message> sent_;
  std::vector<std::vector<Message>> received_;  // per round, inbox on input ports
};

AlgorithmFactory two_cycle_adversary_factory(AdversaryKind kind, unsigned rounds,
                                             DecisionRule rule);

// All kinds, for sweeps.
std::vector<AdversaryKind> all_adversary_kinds();
const char* adversary_kind_name(AdversaryKind kind);

}  // namespace bcclb
