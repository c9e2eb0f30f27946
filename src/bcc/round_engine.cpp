#include "bcc/round_engine.h"

#include "common/check.h"

namespace bcclb {

void RoundEngine::reserve(std::size_t n, unsigned expected_rounds) {
  program_.reserve(n, expected_rounds);
}

RunResult RoundEngine::run(const BccInstance& instance, unsigned bandwidth,
                           const AlgorithmFactory& factory, unsigned max_rounds,
                           const CoinSpec& coins) {
  RunOptions options;
  options.coins = coins;
  return run(instance, bandwidth, factory, max_rounds, options);
}

RunResult RoundEngine::run(const BccInstance& instance, unsigned bandwidth,
                           const AlgorithmFactory& factory, unsigned max_rounds,
                           const RunOptions& options) {
  BCCLB_REQUIRE(!running(), "RoundEngine::run is not reentrant");
  program_.factory = &factory;
  program_.coins = options.coins;
  SoaRunOptions loop_options;
  loop_options.faults = options.faults;
  loop_options.attempt = options.attempt;
  loop_options.deadline_ns = options.deadline_ns;
  loop_options.require_all_finished = options.require_all_finished;
  SoaRunResult run =
      loop_.run(InstanceView(&instance), bandwidth, program_, max_rounds, loop_options);

  RunResult result;
  result.rounds_executed = run.rounds_executed;
  result.all_finished = run.all_finished;
  result.decision = run.decision;
  result.total_bits_broadcast = run.total_bits_broadcast;
  result.stats = run.stats;
  result.faults_applied = std::move(run.faults_applied);
  result.crashed_vertices = std::move(run.crashed_vertices);
  program_.collect(result);
  return result;
}

void RoundEngine::VertexProgram::reserve(std::size_t n, unsigned expected_rounds) {
  if (n == 0) return;
  const std::size_t words = (n + 63) / 64;
  inbox_.reserve(n - 1);
  peer_flat_.reserve(n * (n - 1));
  staged_values_.reserve(static_cast<std::size_t>(expected_rounds) * n);
  staged_widths_.reserve(static_cast<std::size_t>(expected_rounds) * n);
  staged_silent_.reserve(static_cast<std::size_t>(expected_rounds) * words);
  vertices_.reserve(n);
}

void RoundEngine::VertexProgram::init(const InstanceView& view, unsigned bandwidth,
                                      const FaultInjector* faults, unsigned) {
  const BccInstance& instance = *view.explicit_instance();
  n_ = instance.num_vertices();
  faults_ = faults;
  rounds_done_ = 0;

  // The flat peer table turns the inner delivery loop into bounds-free index
  // lookups (the Wiring accessor walks two nested vectors with range checks
  // on every call).
  peer_flat_.clear();
  const auto& tables = instance.wiring().tables();
  for (VertexId v = 0; v < n_; ++v) {
    peer_flat_.insert(peer_flat_.end(), tables[v].begin(), tables[v].end());
  }

  // Private-coin storage must outlive the vertices holding pointers into it.
  private_streams_.clear();
  if (coins.use_private) {
    BCCLB_REQUIRE(coins.private_bits >= 1, "need at least one coin");
    private_streams_.reserve(n_);
    for (VertexId v = 0; v < n_; ++v) {
      private_streams_.emplace_back(
          coins.private_seed * 0x9e3779b97f4a7c15ULL + instance.id_of(v), coins.private_bits);
    }
  }

  // Shared KT-1 knowledge: one sorted ID table + one flat port table for all
  // n vertices, instead of a per-vertex sort.
  kt1_.reset();
  if (instance.mode() == KnowledgeMode::kKT1) {
    kt1_ = std::make_shared<const Kt1ViewData>(Kt1ViewData::build(instance));
  }

  vertices_.clear();
  vertices_.reserve(n_);
  for (VertexId v = 0; v < n_; ++v) {
    LocalView local = make_local_view(instance, v, bandwidth, kt1_.get(),
                                      coins.use_private ? &private_streams_[v] : coins.shared);
    auto alg = (*factory)();
    BCCLB_CHECK(alg != nullptr, "factory returned null algorithm");
    alg->init(local);
    vertices_.push_back(std::move(alg));
  }

  inbox_.assign(n_ - 1, Message::silent());
  staged_values_.clear();
  staged_widths_.clear();
  staged_silent_.clear();
}

void RoundEngine::VertexProgram::broadcast(unsigned round, SoaBroadcasts& out) {
  // Unchecked writes: the loop checks the bandwidth on the post-fault wire.
  for (VertexId v = 0; v < n_; ++v) out.set_message(v, vertices_[v]->broadcast(round));
}

void RoundEngine::VertexProgram::receive(unsigned round, const SoaBroadcasts& in) {
  const auto values = in.values();
  const auto widths = in.widths();
  const auto silent = in.silent_words();
  // Stage the transcript row from the delivered wire: one append per column.
  staged_values_.insert(staged_values_.end(), values.begin(), values.end());
  staged_widths_.insert(staged_widths_.end(), widths.begin(), widths.end());
  staged_silent_.insert(staged_silent_.end(), silent.begin(), silent.end());

  // Deliver: inbox[p] at v = broadcast of the peer behind port p — a gather
  // by index from the shared outbox columns.
  const std::size_t ports = n_ - 1;
  const std::uint32_t* peers = peer_flat_.data();
  for (VertexId v = 0; v < n_; ++v) {
    const std::uint32_t* row = peers + static_cast<std::size_t>(v) * ports;
    for (std::size_t p = 0; p < ports; ++p) {
      const std::uint32_t u = row[p];
      inbox_[p] = (silent[u / 64] >> (u % 64)) & 1 ? Message::silent()
                                                   : Message::bits(values[u], widths[u]);
    }
    vertices_[v]->receive(round, std::span<const Message>(inbox_.data(), ports));
  }
  ++rounds_done_;
}

bool RoundEngine::VertexProgram::all_finished() const {
  for (VertexId v = 0; v < n_; ++v) {
    if (!vertices_[v]->finished() && !(faults_ && faults_->crashed(v, rounds_done_))) {
      return false;
    }
  }
  return true;
}

bool RoundEngine::VertexProgram::decision() const {
  bool all = true;
  for (const auto& v : vertices_) all = v->decide() && all;
  return all;
}

std::uint64_t RoundEngine::VertexProgram::label_of(VertexId v) const {
  return vertices_[v]->component_label().value_or(0);
}

std::size_t RoundEngine::VertexProgram::state_bytes() const {
  return inbox_.capacity() * sizeof(Message) + peer_flat_.capacity() * sizeof(std::uint32_t) +
         staged_values_.capacity() * sizeof(std::uint64_t) + staged_widths_.capacity() +
         staged_silent_.capacity() * sizeof(std::uint64_t) +
         vertices_.capacity() * sizeof(std::unique_ptr<VertexAlgorithm>);
}

void RoundEngine::VertexProgram::collect(RunResult& result) {
  const unsigned rounds = rounds_done_;
  const std::size_t words = (n_ + 63) / 64;
  result.transcript = Transcript(n_, rounds);
  for (unsigned r = 0; r < rounds; ++r) {
    const std::size_t value_row = static_cast<std::size_t>(r) * n_;
    const std::size_t word_row = static_cast<std::size_t>(r) * words;
    for (VertexId v = 0; v < n_; ++v) {
      const bool silent = (staged_silent_[word_row + v / 64] >> (v % 64)) & 1;
      result.transcript.record(v, r,
                               silent ? Message::silent()
                                      : Message::bits(staged_values_[value_row + v],
                                                      staged_widths_[value_row + v]));
    }
  }
  result.vertex_decisions.reserve(n_);
  result.labels.reserve(n_);
  for (const auto& v : vertices_) {
    result.vertex_decisions.push_back(v->decide());
    result.labels.push_back(v->component_label());
  }
  result.agents = std::move(vertices_);
  vertices_.clear();
  result.kt1_view = std::move(kt1_);
}

}  // namespace bcclb
