#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "util/check.h"

namespace whisk::util {

void ThreadPool::parallel_for(
    std::size_t count, int threads,
    const std::function<void(std::size_t index, int worker)>& body) {
  WHISK_CHECK(threads >= 1, "parallel_for needs at least one thread");
  const std::size_t stripes =
      std::min(static_cast<std::size_t>(threads), count);
  if (stripes == 0) return;
  // claimed[s]: how many indices of stripe s have been handed out.
  std::vector<std::atomic<std::size_t>> claimed(stripes);

  auto work = [&](int worker) {
    for (std::size_t j = 0; j < stripes; ++j) {
      const std::size_t s = (static_cast<std::size_t>(worker) + j) % stripes;
      for (;;) {
        const std::size_t i = s + claimed[s].fetch_add(1) * stripes;
        if (i >= count) break;
        body(i, worker);
      }
    }
  };

  // jthreads join on every exit path, including a throwing body on the
  // calling thread.
  std::vector<std::jthread> helpers;
  helpers.reserve(stripes - 1);
  for (std::size_t w = 1; w < stripes; ++w) {
    helpers.emplace_back(work, static_cast<int>(w));
  }
  work(0);
}

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace whisk::util
