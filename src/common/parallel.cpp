#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/env.h"

namespace bcclb {

unsigned default_parallel_threads() {
  // Strict whole-string parse (common/env.h): malformed, zero, or
  // overflowing values fall through to the hardware default instead of
  // being trusted; in-range values clamp to [1, 256].
  if (const auto parsed = env_u64("BCCLB_THREADS"); parsed && *parsed >= 1) {
    return static_cast<unsigned>(*parsed > 256 ? 256 : *parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(unsigned, std::size_t)>& body) {
  if (count == 0) return;
  if (threads == 0) threads = default_parallel_threads();
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(threads, count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }

  // Exceptions are parked at their index; the lowest one is rethrown once
  // the pool has drained.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(count);
  const auto work = [&](unsigned worker) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(worker, i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work, w);
  for (std::thread& t : pool) t.join();

  if (failed.load(std::memory_order_relaxed)) {
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
}

void parallel_for_blocks(std::size_t count, unsigned threads,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (threads == 0) threads = default_parallel_threads();
  const std::size_t workers = std::min<std::size_t>(threads, count);
  const std::size_t base = count / workers;
  const std::size_t extra = count % workers;
  // Block w starts after w full blocks plus the extras handed to the first
  // min(w, extra) of them.
  parallel_for(workers, static_cast<unsigned>(workers), [&](unsigned, std::size_t w) {
    const std::size_t begin = w * base + std::min(w, extra);
    body(begin, begin + base + (w < extra ? 1 : 0));
  });
}

}  // namespace bcclb
