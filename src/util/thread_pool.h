#pragma once

#include <cstddef>
#include <functional>

namespace whisk::util {

// Parallel loops sized for campaign cells: each index is a whole simulation
// run (milliseconds to seconds), so claiming one costs nothing next to
// running it.
class ThreadPool {
 public:
  ThreadPool() = delete;

  // Runs body(i, worker) exactly once for every i in [0, count) on
  // T = min(threads, count) workers, worker ids 0..T-1. Worker 0 is the
  // calling thread, so threads == 1 is the plain serial loop in index
  // order; the other T-1 are std::threads joined before the call returns.
  //
  // Indices are claimed by stripe: stripe s is {s, s+T, s+2T, ...}. Worker
  // w drains its own stripe lowest-first, then claims from stripes w+1,
  // w+2, ... in turn. Two properties follow that run_campaign relies on:
  //  - execution tracks index order, so its in-index-order flush buffer
  //    stays O(T) cells instead of stalling the lowest index behind one
  //    worker's whole share;
  //  - a worker's own share is a fixed residue class mod T, not whatever a
  //    shared counter hands out: in a seed-innermost grid whose seed count
  //    is a multiple of T, every cell of one (scenario, seed) pair lands
  //    on the same worker and so hits the same scenario memo.
  //
  // Determinism contract: no execution order is guaranteed beyond
  // threads == 1. Callers make iterations independent and write to
  // pre-assigned slots; run_campaign does exactly that, which is why its
  // output is byte-identical for any thread count. Dies if threads < 1.
  static void parallel_for(
      std::size_t count, int threads,
      const std::function<void(std::size_t index, int worker)>& body);

  // std::thread::hardware_concurrency with the zero-means-unknown case
  // clamped to 1.
  [[nodiscard]] static int hardware_threads();
};

}  // namespace whisk::util
