// Upper-bound measurements for the tightness discussion (Section 1.1).
//
// The paper notes its Ω(log n) lower bounds are tight for uniformly sparse
// graphs, citing deterministic sketching [MT16] and the BCC(log n) upper
// bound of [JN17]. This engine measures the round counts of our upper-bound
// implementations — min-ID flooding (Θ(n) baseline), Boruvka-over-broadcast
// (Θ(log n) phases at b = Θ(log n)) and randomized AGM-sketch connectivity
// (polylog at any b) — against the lower-bound curves, on the paper's own
// hard inputs (cycles) and on sparse sweeps.
#pragma once

#include <cstdint>
#include <string>

#include "bcc/round_engine.h"
#include "graph/graph.h"

namespace bcclb {

struct UpperBoundPoint {
  std::size_t n = 0;
  unsigned bandwidth = 0;
  std::string workload;  // "one-cycle", "two-cycle", "forest", "gnp"
  bool truly_connected = false;

  bool flood_ran = false;  // flooding needs b >= bit width of the IDs
  unsigned flood_rounds = 0;
  bool flood_correct = false;
  unsigned boruvka_rounds = 0;
  bool boruvka_correct = false;
  bool sketch_ran = false;
  unsigned sketch_rounds = 0;
  bool sketch_correct = false;
  std::uint64_t sketch_bits_per_vertex = 0;

  double lower_bound_rounds = 0.0;  // log2(n) / b reference line
};

// Runs the selected algorithms on the given KT-1 input graph. Flooding is
// skipped automatically when the bandwidth cannot carry an ID.
UpperBoundPoint measure_upper_bounds(const Graph& input, unsigned bandwidth,
                                     const std::string& workload, std::uint64_t seed,
                                     bool run_flood = true, bool run_sketch = true);

}  // namespace bcclb
