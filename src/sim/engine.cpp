#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace whisk::sim {
namespace {

// 4-ary heap: shallower than a binary heap (fewer levels touched per sift)
// at the cost of three extra comparisons per level — comparisons are cheap
// here because the sort key lives in the heap entry itself.
constexpr std::size_t kArity = 4;

constexpr std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

constexpr std::uint32_t gen_of(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr EventId make_id(std::uint32_t gen, std::uint32_t slot) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

std::uint32_t Engine::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  WHISK_CHECK(meta_.size() < 0xffffffffu, "event slot arena exhausted");
  const auto idx = static_cast<std::uint32_t>(meta_.size());
  meta_.emplace_back();
  if ((idx >> kChunkShift) == fn_chunks_.size()) {
    fn_chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
  }
  return idx;
}

void Engine::release_slot(std::uint32_t idx) {
  fn_at(idx) = nullptr;
  SlotMeta& m = meta_[idx];
  m.heap_pos = kNoHeapPos;
  ++m.gen;  // invalidates every outstanding id naming this slot
  // Retire the slot instead of recycling it once its generation counter
  // would wrap: a wrapped generation could make a 4-billion-release-old
  // stale id match a live event. Leaks one slot per 2^32 releases.
  if (m.gen != 0xffffffffu) free_.push_back(idx);
}

void Engine::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Engine::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      best = before(heap_[c], heap_[best]) ? c : best;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

// Remove the root with the bottom-up variant: sink the hole along minimum
// children to the bottom (no hard-to-predict compare-against-key exit per
// level), then drop the former last element in and bubble it up the few
// levels it actually needs.
void Engine::pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      best = before(heap_[c], heap_[best]) ? c : best;
    }
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, last);
  sift_up(pos);
}

void Engine::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    place(pos, moved);
    // The moved element may need to travel either direction.
    sift_down(pos);
    sift_up(meta_[moved.slot].heap_pos);
  } else {
    heap_.pop_back();
  }
}

Engine::SlotMeta* Engine::live_slot(EventId id) {
  const std::uint32_t idx = slot_of(id);
  if (idx >= meta_.size()) return nullptr;
  SlotMeta& m = meta_[idx];
  if (m.gen != gen_of(id)) return nullptr;
  return &m;
}

EventId Engine::schedule_at(SimTime at, Callback fn) {
  WHISK_CHECK(at >= now_, "cannot schedule events in the past");
  WHISK_CHECK(static_cast<bool>(fn), "cannot schedule a null callback");
  const std::uint32_t idx = acquire_slot();
  fn_at(idx) = std::move(fn);
  heap_.push_back(HeapEntry{at, next_seq_++, idx});
  sift_up(heap_.size() - 1);
  return make_id(meta_[idx].gen, idx);
}

EventId Engine::schedule_in(SimTime delay, Callback fn) {
  WHISK_CHECK(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::schedule_ordered(SimTime at, Callback fn) {
  if (!lane_.empty() && at < lane_.back().time) {
    schedule_at(at, std::move(fn));
    return;
  }
  WHISK_CHECK(at >= now_, "cannot schedule events in the past");
  WHISK_CHECK(static_cast<bool>(fn), "cannot schedule a null callback");
  lane_.push_back(LaneEntry{at, next_seq_++, std::move(fn)});
}

bool Engine::cancel(EventId id) {
  SlotMeta* m = live_slot(id);
  if (m == nullptr) return false;
  heap_remove(m->heap_pos);
  release_slot(slot_of(id));
  return true;
}

bool Engine::reschedule_at(EventId id, SimTime at) {
  WHISK_CHECK(at >= now_, "cannot schedule events in the past");
  SlotMeta* m = live_slot(id);
  if (m == nullptr) return false;
  const std::size_t pos = m->heap_pos;
  heap_[pos].time = at;
  heap_[pos].seq = next_seq_++;  // exactly like a fresh schedule at `at`
  sift_down(pos);
  sift_up(m->heap_pos);
  return true;
}

bool Engine::reschedule_in(EventId id, SimTime delay) {
  WHISK_CHECK(delay >= 0.0, "negative delay");
  return reschedule_at(id, now_ + delay);
}

// Pop and run the root event. The callback is invoked in place in the
// chunked slab: the slot's id is invalidated before the call (a cancel of
// the running event's own id is a no-op, as always), but the slot itself
// only joins the free list afterwards, so events scheduled by the callback
// cannot move it while it executes.
void Engine::execute_top() {
  const HeapEntry top = heap_[0];
  WHISK_CHECK(top.time >= now_, "time went backwards");
  now_ = top.time;
  pop_root();
  ++meta_[top.slot].gen;
  meta_[top.slot].heap_pos = kNoHeapPos;
  ++executed_;
  fn_at(top.slot).consume();
  // Same generation-wrap retirement as release_slot(): recycling a slot
  // whose gen wrapped to 0 would let a 4-billion-execution-old stale id
  // alias a live event.
  if (meta_[top.slot].gen != 0xffffffffu) free_.push_back(top.slot);
}

// Pop and run the lane head. The callback is moved out first: it may
// append to the lane, and a reallocation would move it mid-call.
void Engine::execute_lane_head() {
  LaneEntry& head = lane_[lane_head_];
  WHISK_CHECK(head.time >= now_, "time went backwards");
  now_ = head.time;
  EventFn fn = std::move(head.fn);
  if (++lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
  ++executed_;
  fn.consume();
}

void Engine::execute_next() {
  if (lane_first()) {
    execute_lane_head();
  } else {
    execute_top();
  }
}

void Engine::reset() {
  // Destroy pending callbacks and recycle their slots (same retirement
  // rule as release_slot); executed slots are already on the free list.
  for (const HeapEntry& e : heap_) {
    fn_at(e.slot) = nullptr;
    SlotMeta& m = meta_[e.slot];
    m.heap_pos = kNoHeapPos;
    ++m.gen;
    if (m.gen != 0xffffffffu) free_.push_back(e.slot);
  }
  heap_.clear();
  lane_.clear();
  lane_head_ = 0;
  now_ = 0.0;
  next_seq_ = 1;
  executed_ = 0;
}

bool Engine::step() {
  if (empty()) return false;
  execute_next();
  return true;
}

std::size_t Engine::run(SimTime until) {
  const bool bounded = until != kNever;
  std::size_t ran = 0;
  while (!empty()) {
    if (bounded) {
      const SimTime next =
          lane_first() ? lane_[lane_head_].time : heap_[0].time;
      if (next > until) break;
    }
    execute_next();
    ++ran;
  }
  if (bounded && now_ < until) now_ = until;
  return ran;
}

}  // namespace whisk::sim
