#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "../../bench/reference_engine.h"
#include "sim/random.h"

namespace whisk::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimestampRunsInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(2.0, [&] {
    e.schedule_in(3.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 0.0) << "cancelled events do not advance time";
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine e;
  EXPECT_FALSE(e.cancel(12345));
}

TEST(Engine, CancelAfterExecutionReturnsFalse) {
  Engine e;
  const EventId id = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(10.0, [&] { ++fired; });
  e.run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 5.0) << "run(until) advances the clock to the horizon";
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilWithEmptyQueueAdvancesClock) {
  Engine e;
  e.run(7.5);
  EXPECT_EQ(e.now(), 7.5);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine e;
  std::vector<double> times;
  e.schedule_at(1.0, [&] {
    times.push_back(e.now());
    e.schedule_in(1.0, [&] { times.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Engine, ZeroDelayEventRunsAtSameTime) {
  Engine e;
  double t = -1.0;
  e.schedule_at(4.0, [&] { e.schedule_in(0.0, [&] { t = e.now(); }); });
  e.run();
  EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(Engine, StepExecutesOneEvent) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, PendingAndExecutedCounts) {
  Engine e;
  e.schedule_at(1.0, [] {});
  const EventId id = e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(id);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.executed(), 1u);
}

TEST(Engine, MoveOnlyCaptureIsSchedulable) {
  // std::function rejected move-only captures; EventFn must not.
  Engine e;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  e.schedule_at(1.0, [&seen, p = std::move(payload)] { seen = *p; });
  e.run();
  EXPECT_EQ(seen, 7);
}

TEST(Engine, StaleCancelAfterSlotReuseIsNoOp) {
  // Generation counters: an id whose slot has been recycled by a newer
  // event must not cancel that newer event.
  Engine e;
  bool first = false;
  bool second = false;
  const EventId a = e.schedule_at(1.0, [&] { first = true; });
  EXPECT_TRUE(e.cancel(a));
  // The freed slot is reused (LIFO free list) by the next schedule.
  const EventId b = e.schedule_at(2.0, [&] { second = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(e.cancel(a)) << "stale id must not hit the reused slot";
  e.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, StaleCancelAfterExecutionAndReuseIsNoOp) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.run();
  int fired = 0;
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, RescheduleMovesEventAndKeepsId) {
  Engine e;
  std::vector<int> order;
  const EventId a = e.schedule_at(5.0, [&] { order.push_back(1); });
  e.schedule_at(3.0, [&] { order.push_back(2); });
  EXPECT_TRUE(e.reschedule_at(a, 1.0));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, RescheduleBehavesLikeFreshScheduleAmongEqualTimes) {
  // A rescheduled event must run after events already sitting at the new
  // timestamp, exactly as cancel + schedule would order it.
  Engine e;
  std::vector<int> order;
  const EventId a = e.schedule_at(0.5, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(e.reschedule_at(a, 2.0));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Engine, RescheduleStaleIdReturnsFalse) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.run();
  EXPECT_FALSE(e.reschedule_at(a, 2.0));
  const EventId b = e.schedule_at(2.0, [] {});
  EXPECT_TRUE(e.cancel(b));
  EXPECT_FALSE(e.reschedule_in(b, 1.0));
}

TEST(Engine, RescheduledEventCanStillBeCancelled) {
  Engine e;
  bool fired = false;
  const EventId a = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.reschedule_at(a, 3.0));
  EXPECT_TRUE(e.cancel(a));
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelOwnEventDuringCallbackIsNoOp) {
  Engine e;
  EventId self = kInvalidEvent;
  bool cancel_result = true;
  self = e.schedule_at(1.0, [&] { cancel_result = e.cancel(self); });
  e.run();
  EXPECT_FALSE(cancel_result);
}

TEST(Engine, CancelRunStress100k) {
  // 100k interleaved schedule/cancel ops with deterministic pseudo-random
  // times; every live event must execute exactly once, in nondecreasing
  // time order, and every cancelled event must not execute.
  Engine e;
  unsigned state = 12345u;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state;
  };
  std::vector<EventId> pending;
  std::size_t scheduled = 0;
  std::size_t cancelled = 0;
  std::size_t executed = 0;
  double last_time = -1.0;
  for (int i = 0; i < 100000; ++i) {
    const unsigned op = next() % 4;
    if (op != 0 || pending.empty()) {
      const double t = static_cast<double>(next() % 100000) / 100.0;
      pending.push_back(e.schedule_at(t, [&executed, &last_time, &e] {
        ++executed;
        EXPECT_GE(e.now(), last_time);
        last_time = e.now();
      }));
      ++scheduled;
    } else {
      const std::size_t pick = next() % pending.size();
      if (e.cancel(pending[pick])) ++cancelled;
      EXPECT_FALSE(e.cancel(pending[pick])) << "double cancel must fail";
      pending[pick] = pending.back();
      pending.pop_back();
    }
  }
  EXPECT_EQ(e.pending(), scheduled - cancelled);
  e.run();
  EXPECT_EQ(executed, scheduled - cancelled);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, OrderedEventsInterleaveWithHeapEventsByScheduleOrder) {
  // Lane and heap entries share one (time, seq) order: at equal times the
  // earlier schedule runs first, whichever structure holds it.
  Engine e;
  std::vector<int> order;
  e.schedule_ordered(1.0, [&] { order.push_back(0); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_ordered(1.0, [&] { order.push_back(2); });
  e.schedule_at(0.5, [&] { order.push_back(3); });
  e.schedule_ordered(2.0, [&] { order.push_back(4); });
  e.schedule_at(2.0, [&] { order.push_back(5); });
  EXPECT_EQ(e.pending(), 6u);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2, 4, 5}));
  EXPECT_EQ(e.executed(), 6u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, OutOfOrderOrderedEventFallsBackToTheHeap) {
  Engine e;
  std::vector<int> order;
  e.schedule_ordered(3.0, [&] { order.push_back(3); });
  e.schedule_ordered(1.0, [&] { order.push_back(1); });  // earlier: heap
  e.schedule_ordered(3.0, [&] { order.push_back(4); });
  e.schedule_ordered(2.0, [&] { order.push_back(2); });  // earlier: heap
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, LaneCallbackMayGrowTheLane) {
  // The running callback appends far past the lane's capacity; it was
  // moved out of the lane before it ran, so the reallocation cannot move
  // it mid-call.
  Engine e;
  std::vector<int> order;
  e.schedule_ordered(1.0, [&] {
    for (int i = 0; i < 1000; ++i) {
      e.schedule_ordered(1.0 + i, [&order, i] { order.push_back(i); });
    }
    order.push_back(-1);
  });
  e.run();
  ASSERT_EQ(order.size(), 1001u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[1 + i], i);
}

TEST(Engine, RunUntilAndResetWithAHalfDrainedLane) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 4; ++i) e.schedule_ordered(i, [&] { ++fired; });
  e.run(2.5);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_EQ(e.now(), 2.5);
  e.reset();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.now(), 0.0);
  e.schedule_ordered(0.5, [&] { fired += 10; });
  e.run();
  EXPECT_EQ(fired, 12) << "reset destroys the pending lane entries";
}

// Differential test: sim::Engine against the seed engine it replaced
// (bench/reference_engine.h), driven by the same seeded operations.
// schedule_ordered maps to the seed engine's plain schedule, reschedule to
// cancel + schedule, reset to a fresh seed engine. Times sit on a coarse
// grid, so lane and heap entries tie often.
template <typename E>
struct Side {
  static constexpr bool kFast = std::is_same_v<E, Engine>;

  std::unique_ptr<E> engine = std::make_unique<E>();
  std::vector<int> popped;  // tags, in pop order
  int next_tag = 0;
  int ties = 0;  // lane pops at the time of the heap pop before them
  SimTime last_heap_pop = -1.0;

  void ordered(SimTime at, int tag, int depth) {
    auto fn = [this, tag, depth] { fire(tag, depth, /*lane=*/true); };
    if constexpr (kFast) {
      engine->schedule_ordered(at, fn);
    } else {
      engine->schedule_at(at, fn);
    }
  }
  auto heap(SimTime at, int tag, int depth) {
    return engine->schedule_at(
        at, [this, tag, depth] { fire(tag, depth, /*lane=*/false); });
  }

  // A callback's children are a pure function of its tag, so both sides
  // spawn the same events as long as they pop the same tags in order.
  void fire(int tag, int depth, bool lane) {
    popped.push_back(tag);
    const SimTime now = engine->now();
    if (lane && now == last_heap_pop) ++ties;
    if (!lane) last_heap_pop = now;
    if (depth >= 2) return;
    const std::uint64_t h = Rng(static_cast<std::uint64_t>(tag)).next_u64();
    const SimTime later = 0.25 * static_cast<double>((h >> 8) % 4);
    if (lane && depth == 0 && h % 32 == 0) {
      // A burst that outgrows the lane while its callback runs.
      for (int i = 0; i < 300; ++i) {
        ordered(now + 0.25 * (i / 4), next_tag++, depth + 1);
      }
    } else if (h % 4 == 1) {
      ordered(now + later, next_tag++, depth + 1);
    } else if (h % 4 == 2) {
      heap(now + later, next_tag++, depth + 1);
    }
  }
};

class EngineDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EngineDifferential, SamePopOrderAsTheSeedEngine) {
  Side<Engine> fast;
  Side<bench::ref::SeedEngine> seed;
  struct Handle {
    EventId fast;
    bench::ref::EventId seed;
    int tag;
  };
  std::vector<Handle> handles;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto tick = [&rng](std::uint64_t n) {
    return 0.25 * static_cast<double>(rng.uniform_index(n));
  };
  SimTime ordered_tail = 0.0;  // latest time the driver put on the lane
  std::size_t compared = 0;
  int resets_pending = 0;
  int fallbacks = 0;
  int rewinds = 0;

  for (int op = 0; op < 4000; ++op) {
    const SimTime now = fast.engine->now();
    const std::uint64_t r = rng.uniform_index(100);
    if (r < 25) {
      const SimTime at = now + tick(16);
      const int tag = fast.next_tag++;
      ++seed.next_tag;
      handles.push_back({fast.heap(at, tag, 0), seed.heap(at, tag, 0), tag});
    } else if (r < 50) {
      // In order (ties with the lane tail included) or, one time in
      // four, anywhere from now on: the heap fallback when it lands
      // before the lane tail.
      const bool in_order = rng.uniform_index(4) != 0;
      const SimTime at = in_order ? std::max(ordered_tail, now) + tick(3)
                                  : now + tick(8);
      if (at < ordered_tail) ++fallbacks;
      ordered_tail = std::max(ordered_tail, at);
      const int tag = fast.next_tag++;
      ++seed.next_tag;
      fast.ordered(at, tag, 0);
      seed.ordered(at, tag, 0);
    } else if (r < 60 && !handles.empty()) {
      const Handle& h = handles[rng.uniform_index(handles.size())];
      EXPECT_EQ(fast.engine->cancel(h.fast), seed.engine->cancel(h.seed));
    } else if (r < 68 && !handles.empty()) {
      Handle& h = handles[rng.uniform_index(handles.size())];
      const SimTime at = now + tick(16);
      const bool moved = fast.engine->reschedule_at(h.fast, at);
      const bool live = seed.engine->cancel(h.seed);
      EXPECT_EQ(moved, live);
      if (live) h.seed = seed.heap(at, h.tag, 0);
    } else if (r < 80) {
      EXPECT_EQ(fast.engine->step(), seed.engine->step());
    } else if (r < 95) {
      // One bounded run in five asks for a horizon already passed: the
      // clock must not move backwards.
      const SimTime until = r < 92 ? now + tick(24) : now * 0.5;
      if (until < now && !fast.engine->empty()) ++rewinds;
      EXPECT_EQ(fast.engine->run(until), seed.engine->run(until));
    } else if (r < 97) {
      EXPECT_EQ(fast.engine->run(), seed.engine->run());
    } else if (r < 99) {
      if (!fast.engine->empty()) ++resets_pending;
      fast.engine->reset();
      seed.engine = std::make_unique<bench::ref::SeedEngine>();
      handles.clear();
      ordered_tail = 0.0;
    }
    ASSERT_EQ(fast.engine->now(), seed.engine->now()) << "op " << op;
    ASSERT_EQ(fast.engine->pending(), seed.engine->pending()) << "op " << op;
    ASSERT_EQ(fast.engine->executed(), seed.engine->executed())
        << "op " << op;
    ASSERT_EQ(fast.engine->empty(), seed.engine->empty()) << "op " << op;
    ASSERT_EQ(fast.popped.size(), seed.popped.size()) << "op " << op;
    for (; compared < fast.popped.size(); ++compared) {
      ASSERT_EQ(fast.popped[compared], seed.popped[compared])
          << "pop " << compared << ", op " << op;
    }
  }
  EXPECT_EQ(fast.engine->run(), seed.engine->run());
  EXPECT_EQ(fast.popped, seed.popped);
  EXPECT_EQ(fast.engine->executed(), seed.engine->executed());
  // The seeded operations did reach every path under test.
  EXPECT_GT(fast.ties, 0) << "no lane pop tied a heap pop";
  EXPECT_GT(fallbacks, 0) << "no out-of-order schedule_ordered";
  EXPECT_GT(resets_pending, 0) << "no reset with events pending";
  EXPECT_GT(rewinds, 0) << "no run(until) with until < now()";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential, ::testing::Range(0, 8));

TEST(EngineDeath, SchedulingInThePastAborts) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_DEATH(e.schedule_at(1.0, [] {}), "past");
}

TEST(EngineDeath, NegativeDelayAborts) {
  Engine e;
  EXPECT_DEATH(e.schedule_in(-1.0, [] {}), "negative delay");
}

// Property: N events at pseudo-random times always execute in nondecreasing
// time order, regardless of insertion order.
class EngineOrdering : public ::testing::TestWithParam<int> {};

TEST_P(EngineOrdering, NondecreasingExecution) {
  Engine e;
  std::vector<double> seen;
  unsigned state = static_cast<unsigned>(GetParam()) * 747796405u + 1u;
  for (int i = 0; i < 200; ++i) {
    state = state * 1664525u + 1013904223u;
    const double t = static_cast<double>(state % 1000) / 10.0;
    e.schedule_at(t, [&seen, &e] { seen.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(seen.size(), 200u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_LE(seen[i - 1], seen[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrdering, ::testing::Range(0, 6));

}  // namespace
}  // namespace whisk::sim
