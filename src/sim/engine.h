#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"

namespace whisk::sim {

// Handle to a scheduled event; allows cancellation and rescheduling. The id
// packs {generation:32 | slot:32}: slots are recycled through a free list,
// and the generation counter makes stale handles safe — cancelling an
// already-run or already-cancelled id is a no-op even after its slot has
// been reused by a later event.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

// A single-threaded discrete-event simulation engine.
//
// Events are (time, callback) pairs ordered by time, with schedule order as
// the tie-breaker so same-timestamp events run deterministically in the
// order they were scheduled. Every component of the simulator (clients,
// Kafka, invokers, the Docker daemon, the CPU model) drives itself
// exclusively through this engine, which makes whole-cluster runs
// reproducible from a single seed.
//
// Storage layout (the simulator's hottest structure):
//   * callbacks live in a chunked slab with stable addresses, recycled
//     through a LIFO free list — no per-event hash map, no per-event
//     allocation, and execution invokes the callback in place (no move
//     out: the slot cannot be reused until the callback returns);
//   * an indexed 4-ary min-heap whose entries carry the (time, seq) sort
//     key inline — sifts touch only the contiguous heap array — with
//     back-pointers (SlotMeta::heap_pos) giving true O(log n) cancellation
//     instead of lazy-deletion ghosts that every later pop must skip; pops
//     use the bottom-up hole-sinking variant, which trades the
//     hard-to-predict per-level exit branch for a short final sift-up;
//   * EventFn callbacks with inline storage, so the common lambda captures
//     (a `this` pointer plus a few words) never touch the allocator;
//   * a FIFO arrival lane beside the heap for events that are never
//     cancelled or moved and arrive in time order (a scenario's calls):
//     entries carry the same (time, seq) key the heap would have given
//     them, so the lane is sorted by that key, and run/step pop whichever
//     of lane head and heap top comes first. The pop order is exactly the
//     heap-only order, while the heap holds only the in-flight events
//     instead of every pending arrival. Lane callbacks are moved out
//     before they run (they may append to the lane), and the lane is
//     emptied, capacity kept, whenever it drains.
class Engine {
 public:
  using Callback = EventFn;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (>= now).
  EventId schedule_at(SimTime at, Callback fn);

  // Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, Callback fn);

  // Schedule `fn` to run at `at` (>= now) for an event that is never
  // cancelled or moved, so no id is returned. Appended to the arrival lane
  // when `at` is not earlier than the lane's last entry, otherwise
  // scheduled on the heap; either way it runs exactly where schedule_at
  // would have run it.
  void schedule_ordered(SimTime at, Callback fn);

  // Cancel a pending event. Cancelling an already-run, already-cancelled or
  // unknown id is a no-op and returns false.
  bool cancel(EventId id);

  // Move a pending event to a new time (>= now), keeping its id and
  // callback. Equivalent to cancel + schedule — among events at the new
  // timestamp the moved event runs last, exactly as a fresh schedule would —
  // but reuses the slot and skips destroying/rebuilding the callback.
  // Returns false (and does nothing) if the id is stale.
  bool reschedule_at(EventId id, SimTime at);
  bool reschedule_in(EventId id, SimTime delay);

  // Run until the event queue drains or the clock reaches `until` (pass
  // kNever for no horizon). Returns the number of callbacks executed.
  std::size_t run(SimTime until = kNever);

  // Execute exactly one pending event, if any. Returns false when drained.
  bool step();

  // Return the engine to its just-constructed observable state while
  // keeping the slot arena, heap array, arrival lane and free list warm —
  // the workspace-reuse primitive (experiments::CellWorkspace). Any still-
  // pending events (normally none: campaign runs drain the queue) are
  // destroyed, and every outstanding EventId is invalidated through the
  // usual generation bump. Event ordering is unaffected by reuse: the heap
  // orders on (time, seq) alone, so recycled slot numbering can never
  // change which event runs next.
  void reset();

  [[nodiscard]] bool empty() const { return heap_.empty() && lane_.empty(); }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }
  [[nodiscard]] std::size_t executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kNoHeapPos = 0xffffffffu;
  // 512 callbacks per slab chunk: chunk arrays never move, so an executing
  // callback stays put even when the arena grows mid-callback.
  static constexpr std::size_t kChunkShift = 9;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  // Per-slot bookkeeping, kept flat and tiny (8 bytes) so the heap_pos
  // writes during sifts land in a dense array instead of alongside the fat
  // callback storage.
  struct SlotMeta {
    std::uint32_t gen = 1;  // bumped on release; id must match to cancel
    std::uint32_t heap_pos = kNoHeapPos;
  };

  // Heap entries carry the full sort key so sifting never dereferences the
  // slot records: comparisons stay inside one contiguous array, as
  // cache-friendly as the seed's (time, id) heap.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;  // schedule order; FIFO tie-break at equal times
    std::uint32_t slot;
  };

  // Earlier time first; among equal times, earlier schedule first (the
  // 64-bit seq never wraps, so FIFO order holds at any event volume).
  // Bitwise combination keeps the result branch-free so the sift loops
  // compile to conditional moves.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    const bool lt = a.time < b.time;
    const bool eq = a.time == b.time;
    const bool sq = a.seq < b.seq;
    return lt | (eq & sq);
  }

  // An arrival-lane entry: the heap key plus the callback, in place.
  struct LaneEntry {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;
  };

  // True when the lane head runs before the heap top (lane non-empty).
  [[nodiscard]] bool lane_first() const {
    if (lane_.empty()) return false;
    if (heap_.empty()) return true;
    const LaneEntry& head = lane_[lane_head_];
    return before(HeapEntry{head.time, head.seq, 0}, heap_[0]);
  }

  [[nodiscard]] EventFn& fn_at(std::uint32_t idx) {
    return fn_chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    meta_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void pop_root();
  void heap_remove(std::size_t pos);
  void execute_top();
  void execute_lane_head();
  // Run the next event from whichever of lane and heap holds it.
  void execute_next();

  // Decode an id; returns nullptr when it does not name a live event.
  [[nodiscard]] SlotMeta* live_slot(EventId id);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_ = 0;
  std::vector<SlotMeta> meta_;       // flat per-slot generation + heap pos
  std::vector<std::unique_ptr<EventFn[]>> fn_chunks_;  // stable callback slab
  std::vector<std::uint32_t> free_;  // LIFO free list of slot indices
  std::vector<HeapEntry> heap_;      // 4-ary min-heap keyed by (time, seq)
  // Arrival lane, sorted by (time, seq); entries before lane_head_ have
  // run. Empty (lane_head_ == 0) whenever no lane entry is pending.
  std::vector<LaneEntry> lane_;
  std::size_t lane_head_ = 0;
};

}  // namespace whisk::sim
