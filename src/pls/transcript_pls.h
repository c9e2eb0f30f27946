// Transcripts-as-labels: the [PP17] construction the paper uses to connect
// BCC algorithms to proof-labeling schemes (Section 1.3).
//
// Given a t-round BCC(b) algorithm A, the prover labels each vertex with the
// sequence of characters it broadcasts when A runs on the instance. The
// verifier at v replays A's code at v: it feeds the claimed peer broadcasts
// into its own state machine, checks that its own broadcasts match its
// label, and finally checks that A accepts. If every vertex accepts, the
// labels are a genuine accepting execution of A — so if A solves
// Connectivity, this is a Connectivity PLS with verification complexity
// t·(b+1). Hence an o(log n)-round deterministic BCC(1) algorithm would
// yield an o(log n) PLS, which is the contrapositive route to the KT-0
// deterministic Ω(log n) bound.
#pragma once

#include "bcc/round_engine.h"
#include "pls/scheme.h"

namespace bcclb {

class TranscriptPls final : public ProofLabelingScheme {
 public:
  TranscriptPls(AlgorithmFactory factory, unsigned rounds, unsigned bandwidth,
                const PublicCoins* coins = nullptr);

  std::vector<Label> prove(const BccInstance& instance) const override;

  bool verify(const LocalView& view, const Label& own,
              const std::vector<Label>& by_port) const override;

  std::size_t label_bits(std::size_t n) const override;

 private:
  AlgorithmFactory factory_;
  unsigned rounds_;
  unsigned bandwidth_;
  const PublicCoins* coins_;
};

// Encoding helpers: a broadcast character as 1 + b bits (silence flag, then
// the value padded to b bits), a label as t such characters.
Label encode_transcript(const std::vector<Message>& sent, unsigned rounds, unsigned bandwidth);
std::vector<Message> decode_transcript(const Label& label, unsigned rounds, unsigned bandwidth);

}  // namespace bcclb
