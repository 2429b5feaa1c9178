#pragma once

// The seed implementations of sim::Engine and core::RuntimeHistory, kept
// verbatim (modulo namespace) as the baseline side of bench_engine and
// tools/bench_report. The production code replaced these with a slab
// arena + indexed heap + SBO callbacks (engine) and dense records + O(1)
// running sums (history); benchmarking both side by side keeps the claimed
// speedup measured, not remembered.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "util/check.h"
#include "util/ring_buffer.h"
#include "workload/function.h"

// The production Engine/RuntimeHistory live in their own translation units,
// so the bench pays a real call per operation. The seed copies below are
// header-only; marking their entry points noinline keeps the comparison
// apples-to-apples instead of letting the baseline inline away.
#if defined(__GNUC__)
#define WHISK_BENCH_NOINLINE __attribute__((noinline))
#else
#define WHISK_BENCH_NOINLINE
#endif

namespace whisk::bench::ref {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// Seed engine: one std::function per event, a (time, id) priority_queue
// with lazy deletion, and an id -> slot unordered_map.
class SeedEngine {
 public:
  using Callback = std::function<void()>;

  SeedEngine() = default;
  SeedEngine(const SeedEngine&) = delete;
  SeedEngine& operator=(const SeedEngine&) = delete;

  [[nodiscard]] sim::SimTime now() const { return now_; }

  WHISK_BENCH_NOINLINE EventId schedule_at(sim::SimTime at, Callback fn) {
    WHISK_CHECK(at >= now_, "cannot schedule events in the past");
    WHISK_CHECK(static_cast<bool>(fn), "cannot schedule a null callback");
    const EventId id = next_id_++;
    heap_.push(Entry{at, id});
    slots_.emplace(id, Slot{std::move(fn), false});
    ++live_events_;
    return id;
  }

  WHISK_BENCH_NOINLINE EventId schedule_in(sim::SimTime delay, Callback fn) {
    WHISK_CHECK(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  WHISK_BENCH_NOINLINE bool cancel(EventId id) {
    auto it = slots_.find(id);
    if (it == slots_.end() || it->second.cancelled) return false;
    it->second.cancelled = true;
    --live_events_;
    return true;
  }

  WHISK_BENCH_NOINLINE bool step() {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      auto it = slots_.find(top.id);
      WHISK_CHECK(it != slots_.end(), "heap entry without slot");
      if (it->second.cancelled) {
        slots_.erase(it);
        continue;
      }
      Callback fn = std::move(it->second.fn);
      slots_.erase(it);
      --live_events_;
      WHISK_CHECK(top.time >= now_, "time went backwards");
      now_ = top.time;
      ++executed_;
      fn();
      return true;
    }
    return false;
  }

  WHISK_BENCH_NOINLINE std::size_t run(sim::SimTime until = sim::kNever) {
    std::size_t ran = 0;
    while (!heap_.empty()) {
      if (until >= 0.0) {
        const Entry top = heap_.top();
        auto it = slots_.find(top.id);
        if (it != slots_.end() && it->second.cancelled) {
          heap_.pop();
          slots_.erase(it);
          continue;
        }
        if (top.time > until) {
          if (now_ < until) now_ = until;
          break;
        }
      }
      if (!step()) break;
      ++ran;
    }
    if (until >= 0.0 && now_ < until && heap_.empty()) now_ = until;
    return ran;
  }

  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_events_; }
  [[nodiscard]] std::size_t executed() const { return executed_; }

 private:
  struct Entry {
    sim::SimTime time;
    EventId id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  struct Slot {
    Callback fn;
    bool cancelled = false;
  };

  sim::SimTime now_ = 0.0;
  EventId next_id_ = 1;
  std::size_t executed_ = 0;
  std::size_t live_events_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<EventId, Slot> slots_;
};

// Seed history: three per-function unordered_maps, O(window) averaging on
// every expected_runtime() call, unpruned completion deques.
class SeedHistory {
 public:
  explicit SeedHistory(std::size_t window = 10) : window_(window) {
    WHISK_CHECK(window > 0, "history window must be positive");
  }

  WHISK_BENCH_NOINLINE void record_runtime(workload::FunctionId fn, sim::SimTime runtime,
                      sim::SimTime completion_time) {
    WHISK_CHECK(runtime >= 0.0, "negative runtime");
    auto [it, inserted] =
        runtimes_.try_emplace(fn, util::RingBuffer<double>(window_));
    it->second.push(runtime);
    auto& completions = completions_[fn];
    WHISK_CHECK(completions.empty() || completions.back() <= completion_time,
                "completion times must be recorded in order");
    completions.push_back(completion_time);
  }

  WHISK_BENCH_NOINLINE void record_arrival(workload::FunctionId fn, sim::SimTime time) {
    last_arrival_[fn] = time;
  }

  [[nodiscard]] WHISK_BENCH_NOINLINE double expected_runtime(workload::FunctionId fn) const {
    auto it = runtimes_.find(fn);
    if (it == runtimes_.end() || it->second.empty()) return 0.0;
    double sum = 0.0;
    for (double r : it->second.values()) sum += r;
    return sum / static_cast<double>(it->second.size());
  }

  [[nodiscard]] WHISK_BENCH_NOINLINE sim::SimTime previous_arrival(workload::FunctionId fn) const {
    auto it = last_arrival_.find(fn);
    return it == last_arrival_.end() ? 0.0 : it->second;
  }

  [[nodiscard]] WHISK_BENCH_NOINLINE std::size_t completions_within(workload::FunctionId fn,
                                               sim::SimTime window_t,
                                               sim::SimTime now) const {
    auto it = completions_.find(fn);
    if (it == completions_.end()) return 0;
    const auto& deque = it->second;
    const auto first =
        std::lower_bound(deque.begin(), deque.end(), now - window_t);
    return static_cast<std::size_t>(deque.end() - first);
  }

 private:
  std::size_t window_;
  std::unordered_map<workload::FunctionId, util::RingBuffer<double>>
      runtimes_;
  std::unordered_map<workload::FunctionId, sim::SimTime> last_arrival_;
  std::unordered_map<workload::FunctionId, std::deque<sim::SimTime>>
      completions_;
};

}  // namespace whisk::bench::ref
