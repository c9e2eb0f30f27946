// The one worker pool, shared by BatchRunner's simulator sweeps and the
// combinatorial kernels.
//
// Outside the serving layer (src/serve), every thread the library starts is
// started here. The contract is "results bit-identical to a serial loop":
// the body writes only to slots owned by its own index (or block), nothing
// about scheduling feeds back into a computation, so any thread count
// (including 1) produces identical bytes.
#pragma once

#include <cstddef>
#include <functional>

namespace bcclb {

// Worker count from the BCCLB_THREADS environment override (strict
// whole-string parse, clamped to [1, 256]); malformed or absent values fall
// back to std::thread::hardware_concurrency. This is the single reader of
// BCCLB_THREADS.
unsigned default_parallel_threads();

// Runs body(worker, i) once for every i in [0, count) on
// min(threads, count) workers; worker ∈ [0, workers) names the thread, so
// a body may keep per-worker state (a reusable engine) in slot `worker`.
// Workers claim indices from a shared counter, so the assignment of indices
// to workers is not deterministic — only the per-index results are.
// threads == 0 means default_parallel_threads(); a single worker runs
// inline on the calling thread in ascending order. Exceptions propagate: the
// lowest failing index is rethrown after every worker has drained, matching
// what a serial loop would have thrown first.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(unsigned, std::size_t)>& body);

// Splits [0, count) into one contiguous block per worker and runs
// body(begin, end) on each, through parallel_for. Blocks are a pure function
// of (count, threads): the first (count % workers) blocks get one extra
// element, so a replay with the same thread count shards identically.
// threads == 0 and a single worker (one block, run inline) behave as in
// parallel_for, and the lowest failing block's exception wins.
void parallel_for_blocks(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace bcclb
