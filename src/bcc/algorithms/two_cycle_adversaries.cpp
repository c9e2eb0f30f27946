#include "bcc/algorithms/two_cycle_adversaries.h"

#include "common/check.h"
#include "common/random.h"

namespace bcclb {

DecisionRule always_yes_rule() {
  return [](const std::vector<Message>&, const std::vector<std::vector<Message>>&) {
    return true;
  };
}

DecisionRule parity_rule() {
  return [](const std::vector<Message>& sent, const std::vector<std::vector<Message>>& received) {
    unsigned ones = 0;
    for (const auto& m : sent) {
      if (!m.is_silent() && m.bit(0)) ++ones;
    }
    for (const auto& round : received) {
      for (const auto& m : round) {
        if (!m.is_silent() && m.bit(0)) ++ones;
      }
    }
    return (ones % 2) == 0;
  };
}

TwoCycleAdversary::TwoCycleAdversary(AdversaryKind kind, unsigned rounds, DecisionRule rule)
    : kind_(kind), rounds_(rounds), rule_(std::move(rule)) {
  BCCLB_REQUIRE(rule_ != nullptr, "decision rule required");
}

void TwoCycleAdversary::init(const LocalView& view) {
  view_ = view;
  if (kind_ == AdversaryKind::kCoinXorId) {
    BCCLB_REQUIRE(view.coins != nullptr, "kCoinXorId needs public coins");
  }
}

Message TwoCycleAdversary::broadcast(unsigned round) {
  if (done_rounds_ >= rounds_) return Message::silent();
  Message m = Message::silent();
  switch (kind_) {
    case AdversaryKind::kSilent:
      break;
    case AdversaryKind::kIdBits:
      m = Message::one_bit((view_.id >> (round % 64)) & 1);
      break;
    case AdversaryKind::kHashedId:
      m = Message::one_bit((fmix64(view_.id) >> (round % 64)) & 1);
      break;
    case AdversaryKind::kCoinXorId: {
      const bool coin = view_.coins->bit(round % view_.coins->size_bits());
      m = Message::one_bit(coin ^ (((view_.id >> (round % 64)) & 1) != 0));
      break;
    }
    case AdversaryKind::kPortParity: {
      unsigned parity = round;
      for (Port p : view_.input_ports) parity += p;
      m = Message::one_bit(parity & 1);
      break;
    }
    case AdversaryKind::kEcho: {
      if (round == 0 || received_.empty()) {
        m = Message::one_bit(view_.id & 1);
      } else {
        bool x = false;
        for (const Message& prev : received_.back()) {
          if (!prev.is_silent()) x ^= prev.bit(0);
        }
        m = Message::one_bit(x);
      }
      break;
    }
    case AdversaryKind::kStateHash: {
      // Fold the full input-port history into a rolling hash; broadcast its
      // low bit. Depends only on (ID, heard-on-input-edges), so it is
      // wiring-independent like the structure-level analysis assumes.
      std::uint64_t h = fmix64(view_.id + 0x1234567ULL);
      for (const auto& round_msgs : received_) {
        for (const Message& prev : round_msgs) {
          h = fmix64(h ^ (prev.is_silent() ? 2 : (prev.bit(0) ? 1 : 0)) ^ (h << 1));
        }
      }
      m = Message::one_bit(h & 1);
      break;
    }
  }
  sent_.push_back(m);
  return m;
}

void TwoCycleAdversary::receive(unsigned round, std::span<const Message> inbox) {
  (void)round;
  if (done_rounds_ >= rounds_) return;
  std::vector<Message> on_input_ports;
  on_input_ports.reserve(view_.input_ports.size());
  for (Port p : view_.input_ports) on_input_ports.push_back(inbox[p]);
  received_.push_back(std::move(on_input_ports));
  ++done_rounds_;
}

bool TwoCycleAdversary::finished() const { return done_rounds_ >= rounds_; }

bool TwoCycleAdversary::decide() const { return rule_(sent_, received_); }

AlgorithmFactory two_cycle_adversary_factory(AdversaryKind kind, unsigned rounds,
                                             DecisionRule rule) {
  return [kind, rounds, rule] {
    return std::make_unique<TwoCycleAdversary>(kind, rounds, rule);
  };
}

std::vector<AdversaryKind> all_adversary_kinds() {
  return {AdversaryKind::kSilent,     AdversaryKind::kIdBits, AdversaryKind::kHashedId,
          AdversaryKind::kCoinXorId,  AdversaryKind::kPortParity,
          AdversaryKind::kEcho,       AdversaryKind::kStateHash};
}

const char* adversary_kind_name(AdversaryKind kind) {
  switch (kind) {
    case AdversaryKind::kSilent:
      return "silent";
    case AdversaryKind::kIdBits:
      return "id-bits";
    case AdversaryKind::kHashedId:
      return "hashed-id";
    case AdversaryKind::kCoinXorId:
      return "coin-xor-id";
    case AdversaryKind::kPortParity:
      return "port-parity";
    case AdversaryKind::kEcho:
      return "echo";
    case AdversaryKind::kStateHash:
      return "state-hash";
  }
  return "unknown";
}

}  // namespace bcclb
