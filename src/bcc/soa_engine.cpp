#include "bcc/soa_engine.h"

#include <chrono>
#include <optional>

#include "bcc/transcript.h"
#include "common/check.h"
#include "common/errors.h"

namespace bcclb {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (x >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct SoaRunGuard {
  bool* running;
  ~SoaRunGuard() { *running = false; }
};

}  // namespace

void SoaBroadcasts::reset(std::size_t n, unsigned bandwidth) {
  n_ = n;
  bandwidth_ = bandwidth;
  bits_sum_ = 0;
  oversized_ = 0;
  values_.assign(n, 0);
  widths_.assign(n, 0);
  silent_.assign((n + 63) / 64, ~0ULL);
}

void SoaBroadcasts::set_bits(VertexId v, std::uint64_t value, unsigned len) {
  BCCLB_REQUIRE(v < n_, "vertex out of range");
  BCCLB_REQUIRE(len >= 1 && len <= 64, "message length must be in [1, 64]");
  BCCLB_REQUIRE(len == 64 || value < (1ULL << len), "value does not fit in len bits");
  if (len > bandwidth_) {
    throw BandwidthViolationError("broadcast exceeds the bandwidth budget",
                                  {0, static_cast<std::int64_t>(v), -1});
  }
  store(v, value, len);
}

void SoaBroadcasts::set_message(VertexId v, const Message& m) {
  BCCLB_REQUIRE(v < n_, "vertex out of range");
  if (m.is_silent()) {
    set_silent(v);
  } else {
    store(v, m.value(), m.num_bits());
  }
}

void SoaBroadcasts::store(VertexId v, std::uint64_t value, unsigned len) {
  bits_sum_ += len;
  bits_sum_ -= widths_[v];
  oversized_ += len > bandwidth_ ? 1 : 0;
  oversized_ -= widths_[v] > bandwidth_ ? 1 : 0;
  values_[v] = value;
  widths_[v] = static_cast<std::uint8_t>(len);
  silent_[v / 64] &= ~(1ULL << (v % 64));
}

void SoaBroadcasts::set_silent(VertexId v) {
  BCCLB_REQUIRE(v < n_, "vertex out of range");
  bits_sum_ -= widths_[v];
  oversized_ -= widths_[v] > bandwidth_ ? 1 : 0;
  widths_[v] = 0;
  silent_[v / 64] |= 1ULL << (v % 64);
}

std::uint64_t SoaBroadcasts::value(VertexId v) const {
  BCCLB_REQUIRE(!is_silent(v), "silent message has no value");
  return values_[v];
}

Message SoaBroadcasts::message(VertexId v) const {
  return is_silent(v) ? Message::silent() : Message::bits(values_[v], widths_[v]);
}

std::size_t SoaBroadcasts::buffer_bytes() const {
  return values_.capacity() * sizeof(std::uint64_t) + widths_.capacity() +
         silent_.capacity() * sizeof(std::uint64_t);
}

SoaRunResult SoaRoundEngine::run(const InstanceView& view, unsigned bandwidth,
                                 SoaProgram& program, unsigned max_rounds,
                                 const SoaRunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = view.num_vertices();
  BCCLB_REQUIRE(n >= 2, "need at least 2 vertices");
  if (bandwidth < 1 || bandwidth > 64) {
    throw BandwidthViolationError("bandwidth must be in [1, 64]", {view.digest(), -1, -1});
  }
  BCCLB_REQUIRE(!running_, "SoaRoundEngine::run is not reentrant");
  running_ = true;
  SoaRunGuard guard{&running_};

  // The fault hook, built once per run. The digest is computed only when
  // faults are in play or on an error path (an explicit instance's digest
  // walks the whole wiring; an implicit one's is O(1)).
  std::optional<FaultInjector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
    injector.emplace(*options.faults, n, bandwidth, view.digest(), options.attempt);
  }

  program.init(view, bandwidth, injector ? &*injector : nullptr, options.threads);
  outbox_.reset(n, bandwidth);

  const auto violation = [&](std::int64_t v, unsigned t) {
    return BandwidthViolationError("broadcast exceeds the bandwidth budget",
                                   {view.digest(), v, static_cast<std::int64_t>(t)});
  };

  SoaRunResult result;
  RoundMajorDigest stream;

  unsigned t = 0;
  for (; t < max_rounds; ++t) {
    if (program.all_finished()) break;

    if (options.deadline_ns != 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start);
      if (static_cast<std::uint64_t>(elapsed.count()) >= options.deadline_ns) {
        throw JobTimeoutError("watchdog deadline expired after " + std::to_string(t) + " rounds",
                              {view.digest(), -1, static_cast<std::int64_t>(t)});
      }
    }

    try {
      program.broadcast(t, outbox_);
    } catch (const BandwidthViolationError& e) {
      // set_bits knows the vertex; the loop adds the instance and the round.
      throw violation(e.context().vertex, t);
    }

    if (injector) {
      // Dense fault pass, v-ascending: round-trip each slot through the
      // injector, checking the bandwidth on what actually goes on the wire
      // and remembering rewritten slots so the program's intended
      // broadcasts can be restored after delivery.
      fault_undo_.clear();
      for (VertexId v = 0; v < n; ++v) {
        const Message before = outbox_.message(v);
        const Message after = injector->apply(t, v, before);
        if (after.num_bits() > bandwidth) throw violation(v, t);
        if (after != before) {
          fault_undo_.emplace_back(v, before);
          outbox_.set_message(v, after);
        }
      }
    }
    if (outbox_.oversized() != 0) {
      VertexId v = 0;
      while (outbox_.num_bits(v) <= bandwidth) ++v;
      throw violation(v, t);
    }

    result.total_bits_broadcast += outbox_.round_bits();

    if (options.digest_transcript) {
      // The canonical round-major walk: vertex order within the round.
      const auto values = outbox_.values();
      const auto widths = outbox_.widths();
      for (VertexId v = 0; v < n; ++v) {
        const bool silent = outbox_.is_silent(v);
        stream.mix_message(silent, silent ? 0 : widths[v], silent ? 0 : values[v]);
      }
    }

    program.receive(t, outbox_);

    if (injector) {
      for (const auto& [v, before] : fault_undo_) outbox_.set_message(v, before);
    }
  }

  result.rounds_executed = t;
  result.all_finished = program.all_finished();
  if (injector) {
    result.faults_applied = injector->take_log();
    result.crashed_vertices = injector->crashed_by(t);
  }
  if (options.require_all_finished && !result.all_finished) {
    throw RoundLimitError(
        "run hit the round limit (" + std::to_string(max_rounds) + ") before every vertex finished",
        {view.digest(), -1, static_cast<std::int64_t>(t)});
  }
  result.decision = program.decision();
  if (options.digest_transcript) {
    result.transcript_digest = stream.finalize(n, t);
  }
  std::uint64_t lh = fnv_mix(0xcbf29ce484222325ULL, n);
  for (VertexId v = 0; v < n; ++v) lh = fnv_mix(lh, program.label_of(v));
  result.labels_digest = lh;

  stats_.rounds = t;
  stats_.total_bits = result.total_bits_broadcast;
  stats_.peak_buffer_bytes = outbox_.buffer_bytes() + program.state_bytes();
  stats_.wall_time_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count());
  result.stats = stats_;
  return result;
}

}  // namespace bcclb
