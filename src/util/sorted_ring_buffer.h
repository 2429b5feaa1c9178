#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/ring_buffer.h"

namespace whisk::util {

// RingBuffer<double> that keeps a sorted copy of the retained window, so an
// order statistic is one index instead of a copy plus nth_element per query.
//
// Each push inserts the new value at its upper_bound and erases one copy of
// the evicted value at its lower_bound: the sorted copy always holds the
// window's multiset, so nth(k) equals what nth_element over values() puts
// at position k, duplicates included.
class SortedRingBuffer {
 public:
  explicit SortedRingBuffer(std::size_t capacity) : buf_(capacity) {
    sorted_.reserve(capacity);
  }

  void push(double value) {
    if (const auto evicted = buf_.push(value)) {
      sorted_.erase(
          std::lower_bound(sorted_.begin(), sorted_.end(), *evicted));
    }
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), value),
                   value);
  }

  // The k-th smallest retained value (0-based).
  [[nodiscard]] double nth(std::size_t k) const {
    WHISK_CHECK(k < sorted_.size(), "order statistic out of range");
    return sorted_[k];
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  // The window in ring order, as RingBuffer::values().
  [[nodiscard]] const std::vector<double>& values() const {
    return buf_.values();
  }

 private:
  RingBuffer<double> buf_;
  std::vector<double> sorted_;  // buf_'s values, ascending
};

}  // namespace whisk::util
