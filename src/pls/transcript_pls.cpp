#include "pls/transcript_pls.h"

#include "common/check.h"

namespace bcclb {

Label encode_transcript(const std::vector<Message>& sent, unsigned rounds,
                        unsigned bandwidth) {
  BCCLB_REQUIRE(sent.size() == rounds, "transcript length mismatch");
  Label label;
  label.reserve(static_cast<std::size_t>(rounds) * (1 + bandwidth));
  for (const Message& m : sent) {
    BCCLB_REQUIRE(m.num_bits() <= bandwidth, "message wider than bandwidth");
    label.push_back(!m.is_silent());
    for (unsigned i = 0; i < bandwidth; ++i) {
      label.push_back(!m.is_silent() && i < m.num_bits() && m.bit(i));
    }
  }
  return label;
}

std::vector<Message> decode_transcript(const Label& label, unsigned rounds,
                                       unsigned bandwidth) {
  BCCLB_REQUIRE(label.size() == static_cast<std::size_t>(rounds) * (1 + bandwidth),
                "label has wrong width");
  std::vector<Message> sent;
  sent.reserve(rounds);
  std::size_t at = 0;
  for (unsigned t = 0; t < rounds; ++t) {
    const bool talking = label[at++];
    std::uint64_t value = 0;
    for (unsigned i = 0; i < bandwidth; ++i) {
      if (label[at++]) value |= (1ULL << i);
    }
    sent.push_back(talking ? Message::bits(value, bandwidth) : Message::silent());
  }
  return sent;
}

TranscriptPls::TranscriptPls(AlgorithmFactory factory, unsigned rounds, unsigned bandwidth,
                             const PublicCoins* coins)
    : factory_(std::move(factory)), rounds_(rounds), bandwidth_(bandwidth), coins_(coins) {
  BCCLB_REQUIRE(factory_ != nullptr, "algorithm factory required");
}

std::vector<Label> TranscriptPls::prove(const BccInstance& instance) const {
  RoundEngine engine;
  const RunResult r =
      engine.run(instance, bandwidth_, factory_, rounds_, CoinSpec::public_coins(coins_));
  std::vector<Label> labels;
  labels.reserve(instance.num_vertices());
  for (VertexId v = 0; v < instance.num_vertices(); ++v) {
    std::vector<Message> sent;
    for (unsigned t = 0; t < rounds_; ++t) {
      sent.push_back(t < r.rounds_executed ? r.transcript.sent(v, t) : Message::silent());
    }
    labels.push_back(encode_transcript(sent, rounds_, bandwidth_));
  }
  return labels;
}

bool TranscriptPls::verify(const LocalView& view, const Label& own,
                           const std::vector<Label>& by_port) const {
  if (own.size() != static_cast<std::size_t>(rounds_) * (1 + bandwidth_)) return false;
  for (const Label& l : by_port) {
    if (l.size() != own.size()) return false;
  }
  const auto my_claimed = decode_transcript(own, rounds_, bandwidth_);
  std::vector<std::vector<Message>> peer_claimed;
  peer_claimed.reserve(by_port.size());
  for (const Label& l : by_port) {
    peer_claimed.push_back(decode_transcript(l, rounds_, bandwidth_));
  }

  // Replay the algorithm at this vertex against the claimed broadcasts. A
  // replay that throws (the algorithm chokes on a malformed claimed
  // execution, e.g. silence where it expects bits) is a rejection.
  try {
    LocalView replay_view = view;
    replay_view.bandwidth = bandwidth_;
    replay_view.coins = coins_;
    auto alg = factory_();
    alg->init(replay_view);
    std::vector<Message> inbox(view.n - 1);
    for (unsigned t = 0; t < rounds_; ++t) {
      const Message mine = alg->finished() ? Message::silent() : alg->broadcast(t);
      // The label must match what the algorithm actually broadcasts. Padded
      // encodings normalize widths, so compare via re-encoding.
      if (encode_transcript({mine}, 1, bandwidth_) !=
          encode_transcript({my_claimed[t]}, 1, bandwidth_)) {
        return false;
      }
      if (alg->finished()) continue;
      for (Port p = 0; p + 1 < view.n; ++p) inbox[p] = peer_claimed[p][t];
      alg->receive(t, inbox);
    }
    return alg->decide();
  } catch (const std::exception&) {
    return false;
  }
}

std::size_t TranscriptPls::label_bits(std::size_t n) const {
  (void)n;
  return static_cast<std::size_t>(rounds_) * (1 + bandwidth_);
}

}  // namespace bcclb
