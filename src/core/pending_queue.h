#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/check.h"

namespace whisk::core {

// The invoker's pending-call queue: a stable min-priority queue. The paper
// replaces OpenWhisk's simple FIFO with a priority queue whose keys come
// from the selected scheduling policy; equal-priority calls retain arrival
// order (which also makes the FIFO policy exactly FIFO).
template <typename T>
class PendingQueue {
 public:
  void push(double priority, T value) {
    heap_.push(Entry{priority, next_seq_++, std::move(value)});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  T pop() {
    WHISK_CHECK(!heap_.empty(), "pop() on empty queue");
    // std::priority_queue::top returns const&; the value is moved out via a
    // const_cast which is safe because the entry is removed immediately.
    T out = std::move(const_cast<Entry&>(heap_.top()).value);
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    double priority;
    std::uint64_t seq;
    T value;
    bool operator>(const Entry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq > other.seq;
    }
  };

  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

}  // namespace whisk::core
