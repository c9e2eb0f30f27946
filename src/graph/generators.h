// Workload generators for the experiments: random cycle instances (the
// paper's hard inputs), Erdős–Rényi graphs and random forests (upper-bound
// sweeps on sparse inputs), and convenience constructors.
#pragma once

#include <cstddef>

#include "common/random.h"
#include "graph/cycle_structure.h"
#include "graph/graph.h"

namespace bcclb {

// Uniformly random one-cycle structure on [n] (uniform over the (n-1)!/2
// cyclic orders).
CycleStructure random_one_cycle(std::size_t n, Rng& rng);

// Random two-cycle structure: the split point is chosen uniformly from the
// feasible sizes and each side gets a uniform cyclic order. (Not uniform over
// all two-cycle structures; the KT-0 engine reweights when it must be.)
CycleStructure random_two_cycle(std::size_t n, Rng& rng);

// G(n, p).
Graph random_gnp(std::size_t n, double p, Rng& rng);

// Random forest with the given number of trees (arboricity 1 inputs for the
// tightness experiments).
Graph random_forest(std::size_t n, std::size_t trees, Rng& rng);

}  // namespace bcclb
