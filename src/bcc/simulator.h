// The BCC(b) simulator facade.
//
// BccSimulator is the historical single-instance entry point: it binds an
// instance, a bandwidth and a coin model, and runs one algorithm to a
// RunResult. Since the execution-core refactor it is a thin facade over
// RoundEngine (see round_engine.h), the per-vertex adapter on the one round
// loop, with its pre-allocated buffers; instance sweeps should go through BatchRunner (see
// batch_runner.h) instead of constructing one BccSimulator per instance.
//
// The vertex-algorithm interface (VertexAlgorithm, AlgorithmFactory) and
// RunResult live in round_engine.h; this header re-exports them so the many
// existing call sites keep compiling unchanged.
#pragma once

#include "bcc/round_engine.h"

namespace bcclb {

class BccSimulator {
 public:
  // coins may be null (deterministic algorithm). bandwidth is b. The
  // instance is stored by value so temporaries are safe to pass.
  BccSimulator(BccInstance instance, unsigned bandwidth, const PublicCoins* coins = nullptr);

  // Switch to the private-coin model (Section 1.2: each vertex gets its own
  // string r_v): every vertex receives an independent coin stream derived
  // from `seed` and its ID, replacing any shared coins. Lower bounds proved
  // with public coins hold here too; some upper bounds (the AGM sketches)
  // genuinely need the shared stream and break — measurably.
  void use_private_coins(std::uint64_t seed, std::size_t bits_per_vertex = 4096);

  // Runs up to max_rounds rounds (stopping early once every vertex reports
  // finished). Throws if any broadcast exceeds the bandwidth. Executes on a
  // thread-local RoundEngine so repeated facade runs still reuse buffers.
  RunResult run(const AlgorithmFactory& factory, unsigned max_rounds) const;

  const BccInstance& instance() const { return instance_; }
  unsigned bandwidth() const { return bandwidth_; }

  // The coin model this simulator would hand the engine.
  CoinSpec coin_spec() const;

 private:
  BccInstance instance_;
  unsigned bandwidth_;
  const PublicCoins* coins_;
  bool private_coins_ = false;
  std::uint64_t private_seed_ = 0;
  std::size_t private_bits_ = 0;
};

}  // namespace bcclb
