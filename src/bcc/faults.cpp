#include "bcc/faults.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/errors.h"

namespace bcclb {

namespace {

constexpr unsigned kNever = std::numeric_limits<unsigned>::max();

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashStop: return "crash-stop";
    case FaultKind::kDropBroadcast: return "drop";
    case FaultKind::kFlipBits: return "flip";
    case FaultKind::kByzantineReplace: return "byzantine";
  }
  return "?";
}

FaultPlan& FaultPlan::crash(VertexId vertex, unsigned round) {
  events_.push_back({round, vertex, FaultKind::kCrashStop, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::drop(VertexId vertex, unsigned round) {
  events_.push_back({round, vertex, FaultKind::kDropBroadcast, 0, 0});
  return *this;
}

FaultPlan& FaultPlan::flip(VertexId vertex, unsigned round, std::uint64_t mask) {
  BCCLB_REQUIRE(mask != 0, "a flip fault needs a non-zero XOR mask");
  events_.push_back({round, vertex, FaultKind::kFlipBits, mask, 0});
  return *this;
}

FaultPlan& FaultPlan::byzantine(VertexId vertex, unsigned round, std::uint64_t value,
                                unsigned bits) {
  BCCLB_REQUIRE(bits <= 64, "byzantine payload is at most 64 bits");
  if (bits < 64) BCCLB_REQUIRE(value < (1ULL << bits), "byzantine payload wider than its length");
  events_.push_back({round, vertex, FaultKind::kByzantineReplace, value, bits});
  return *this;
}

FaultPlan& FaultPlan::set_transient(bool transient) {
  transient_ = transient;
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, std::size_t n, unsigned max_rounds,
                            const FaultCounts& counts) {
  BCCLB_REQUIRE(n >= 2, "need at least 2 vertices");
  BCCLB_REQUIRE(max_rounds >= 1, "need at least one round to fault");
  BCCLB_REQUIRE(counts.crashes <= n, "cannot crash more vertices than exist");
  Rng rng(seed);
  FaultPlan plan;

  // Distinct crash victims via a partial Fisher-Yates over the vertex list.
  std::vector<VertexId> victims(n);
  for (VertexId v = 0; v < n; ++v) victims[v] = v;
  rng.shuffle(victims);
  for (unsigned i = 0; i < counts.crashes; ++i) {
    plan.crash(victims[i], static_cast<unsigned>(rng.next_below(max_rounds)));
  }
  for (unsigned i = 0; i < counts.drops; ++i) {
    plan.drop(static_cast<VertexId>(rng.next_below(n)),
              static_cast<unsigned>(rng.next_below(max_rounds)));
  }
  for (unsigned i = 0; i < counts.flips; ++i) {
    plan.flip(static_cast<VertexId>(rng.next_below(n)),
              static_cast<unsigned>(rng.next_below(max_rounds)),
              rng.next_u64() | 1);  // ensure at least one flipped bit
  }
  for (unsigned i = 0; i < counts.byzantine; ++i) {
    // Forge a 1-bit message: valid at every bandwidth, so random byzantine
    // plans corrupt content rather than tripping the bandwidth check.
    plan.byzantine(static_cast<VertexId>(rng.next_below(n)),
                   static_cast<unsigned>(rng.next_below(max_rounds)), rng.next_u64() & 1, 1);
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t n, unsigned bandwidth,
                             std::uint64_t instance_digest, unsigned attempt)
    : crash_round_(n, kNever), bandwidth_(bandwidth), instance_digest_(instance_digest) {
  if (plan.transient() && attempt > 0) return;  // transient: attempt 0 only
  for (const FaultEvent& e : plan.events()) {
    BCCLB_REQUIRE(e.vertex < n, "fault event names a vertex outside the instance");
    if (e.kind == FaultKind::kCrashStop) {
      crash_round_[e.vertex] = std::min(crash_round_[e.vertex], e.round);
      has_crashes_ = true;
    } else {
      events_.push_back(e);
    }
  }
  // Sorted by (round, vertex) with insertion order preserved within a key, so
  // multiple events on one broadcast compose in the order they were planned.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.round != b.round ? a.round < b.round : a.vertex < b.vertex;
                   });
}

Message FaultInjector::apply(unsigned round, VertexId vertex, const Message& broadcast) {
  Message m = broadcast;

  // Crash-stop dominates everything scheduled at or after the crash round.
  if (crash_round_[vertex] <= round) {
    if (crash_round_[vertex] == round) {
      log_.push_back({round, vertex, FaultKind::kCrashStop, m, Message::silent()});
    }
    return Message::silent();
  }

  // Non-crash events for (round, vertex): the sorted event list is scanned
  // with a binary search for the round, then a short linear walk.
  auto it = std::lower_bound(events_.begin(), events_.end(), round,
                             [](const FaultEvent& e, unsigned r) { return e.round < r; });
  for (; it != events_.end() && it->round == round; ++it) {
    if (it->vertex != vertex) continue;
    const Message before = m;
    switch (it->kind) {
      case FaultKind::kCrashStop:
        break;  // handled above
      case FaultKind::kDropBroadcast:
        m = Message::silent();
        break;
      case FaultKind::kFlipBits:
        // Corrupt in place; silence carries no bits to flip.
        if (!m.is_silent()) {
          const unsigned len = m.num_bits();
          const std::uint64_t mask =
              len >= 64 ? it->payload : (it->payload & ((1ULL << len) - 1));
          m = Message::bits(m.value() ^ mask, len);
        }
        break;
      case FaultKind::kByzantineReplace:
        if (it->payload_bits == 0) {
          m = Message::silent();
        } else if (it->payload_bits > bandwidth_) {
          throw FaultInjectionError(
              "injected byzantine broadcast exceeds the bandwidth budget",
              {instance_digest_, static_cast<std::int64_t>(vertex),
               static_cast<std::int64_t>(round)});
        } else {
          m = Message::bits(it->payload, it->payload_bits);
        }
        break;
    }
    if (!(m == before)) log_.push_back({round, vertex, it->kind, before, m});
  }
  return m;
}

std::vector<VertexId> FaultInjector::crashed_by(unsigned round) const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < crash_round_.size(); ++v) {
    if (crash_round_[v] <= round) out.push_back(v);
  }
  return out;
}

}  // namespace bcclb
