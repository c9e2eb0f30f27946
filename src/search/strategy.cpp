#include "search/strategy.h"

#include <cstdio>
#include <memory>

#include "bcc/checkpoint.h"
#include "common/check.h"

namespace bcclb {

namespace {

class TableAlgorithm final : public VertexAlgorithm {
 public:
  explicit TableAlgorithm(const StrategyTable* table) : table_(table) {}

  void init(const LocalView& view) override {
    state_ = strategy_start_state(view.id, view.input_ports);
    done_rounds_ = 0;
  }

  Message broadcast(unsigned round) override {
    const std::uint32_t k = table_->buckets;
    const std::uint8_t action = table_->broadcast[round * k + state_ % k];
    Message m = action == kActSilent ? Message::silent()
                                     : Message::one_bit(action == kActSend1);
    // The vertex's own broadcast is part of its state (the signature in
    // bcc/transcript.h includes everything sent).
    state_ = strategy_mix(state_, action);
    return m;
  }

  void receive(unsigned round, std::span<const Message> inbox) override {
    state_ = strategy_mix(state_, round);
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      const Message& m = inbox[p];
      state_ = strategy_mix(state_, p);
      state_ = strategy_mix(state_, m.is_silent() ? 2 : (m.value() & 1));
    }
    ++done_rounds_;
  }

  bool finished() const override { return done_rounds_ >= table_->rounds; }

  bool decide() const override { return table_->vote_no[state_ % table_->buckets] == 0; }

 private:
  const StrategyTable* table_;
  std::uint64_t state_ = kStrategyStateBasis;
  unsigned done_rounds_ = 0;
};

char action_char(std::uint8_t action) {
  switch (action) {
    case kActSilent: return '_';
    case kActSend0: return '0';
    case kActSend1: return '1';
  }
  return '?';
}

}  // namespace

std::uint64_t strategy_start_state(std::uint64_t id, std::span<const Port> input_ports) {
  std::uint64_t state = strategy_mix(kStrategyStateBasis, id);
  state = strategy_mix(state, input_ports.size());
  for (const Port p : input_ports) state = strategy_mix(state, p);
  return state;
}

void validate_strategy(const StrategyTable& table) {
  BCCLB_REQUIRE(table.n >= 3, "strategy: n must be >= 3");
  BCCLB_REQUIRE(table.rounds >= 1, "strategy: rounds must be >= 1");
  BCCLB_REQUIRE(table.buckets >= 1, "strategy: buckets must be >= 1");
  BCCLB_REQUIRE(table.broadcast.size() ==
                    static_cast<std::size_t>(table.rounds) * table.buckets,
                "strategy: broadcast table size != rounds * buckets");
  BCCLB_REQUIRE(table.vote_no.size() == table.buckets,
                "strategy: vote table size != buckets");
  for (const std::uint8_t a : table.broadcast) {
    BCCLB_REQUIRE(a <= kActSend1, "strategy: broadcast cell out of range");
  }
  for (const std::uint8_t v : table.vote_no) {
    BCCLB_REQUIRE(v <= 1, "strategy: vote cell out of range");
  }
}

std::string serialize_strategy(const StrategyTable& table) {
  std::string out = "bcclb-strategy-v1\n";
  char line[128];
  std::snprintf(line, sizeof line, "n %u rounds %u buckets %u bandwidth 1\n", table.n,
                table.rounds, table.buckets);
  out += line;
  for (std::uint32_t r = 0; r < table.rounds; ++r) {
    std::snprintf(line, sizeof line, "round %u ", r);
    out += line;
    for (std::uint32_t k = 0; k < table.buckets; ++k) {
      out += action_char(table.broadcast[r * table.buckets + k]);
    }
    out += '\n';
  }
  out += "votes ";
  for (std::uint32_t k = 0; k < table.buckets; ++k) {
    out += table.vote_no[k] != 0 ? 'N' : 'Y';
  }
  out += '\n';
  return out;
}

std::uint64_t strategy_digest(const StrategyTable& table) {
  return fnv1a(serialize_strategy(table));
}

StrategyTable random_strategy(std::uint32_t n, std::uint32_t rounds, std::uint32_t buckets,
                              Rng& rng) {
  StrategyTable table;
  table.n = n;
  table.rounds = rounds;
  table.buckets = buckets;
  table.broadcast.resize(static_cast<std::size_t>(rounds) * buckets);
  table.vote_no.resize(buckets);
  for (std::uint8_t& a : table.broadcast) {
    a = static_cast<std::uint8_t>(rng.next_below(3));
  }
  for (std::uint8_t& v : table.vote_no) {
    v = static_cast<std::uint8_t>(rng.next_below(2));
  }
  return table;
}

void mutate_strategy(StrategyTable& table, Rng& rng, unsigned flips) {
  const std::size_t cells = table.broadcast.size() + table.vote_no.size();
  for (unsigned f = 0; f < flips; ++f) {
    const std::size_t cell = static_cast<std::size_t>(rng.next_below(cells));
    if (cell < table.broadcast.size()) {
      // Shift by 1 or 2 mod 3: always lands on a *different* action.
      std::uint8_t& a = table.broadcast[cell];
      a = static_cast<std::uint8_t>((a + 1 + rng.next_below(2)) % 3);
    } else {
      std::uint8_t& v = table.vote_no[cell - table.broadcast.size()];
      v = static_cast<std::uint8_t>(1 - v);
    }
  }
}

StrategyTable crossover_strategy(const StrategyTable& a, const StrategyTable& b, Rng& rng) {
  BCCLB_REQUIRE(a.n == b.n && a.rounds == b.rounds && a.buckets == b.buckets,
                "crossover: parents have different shapes");
  StrategyTable child = a;
  const std::uint32_t cut =
      static_cast<std::uint32_t>(rng.next_below(static_cast<std::uint64_t>(a.rounds) + 1));
  for (std::uint32_t r = cut; r < a.rounds; ++r) {
    for (std::uint32_t k = 0; k < a.buckets; ++k) {
      child.broadcast[r * a.buckets + k] = b.broadcast[r * a.buckets + k];
    }
  }
  if (rng.next_bool()) child.vote_no = b.vote_no;
  return child;
}

AlgorithmFactory strategy_factory(StrategyTable table) {
  validate_strategy(table);
  // One shared immutable table; each vertex instance only reads it, so the
  // factory is safe to invoke concurrently (the BatchRunner contract).
  auto shared = std::make_shared<const StrategyTable>(std::move(table));
  return [shared]() -> std::unique_ptr<VertexAlgorithm> {
    return std::make_unique<TableAlgorithm>(shared.get());
  };
}

}  // namespace bcclb
