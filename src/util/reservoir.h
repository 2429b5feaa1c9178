#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace whisk::util {

// Fixed-capacity uniform sample of an unbounded stream (Vitter's
// Algorithm R): the first `capacity` values are kept verbatim, after which
// the i-th value replaces a random slot with probability capacity/i. Used by
// the bounded-memory metrics sinks to estimate quantiles without retaining
// every observation.
//
// Deterministic: replacement decisions come from an inline SplitMix64 stream
// seeded at construction, so the same input sequence always yields the same
// sample — campaign output must not depend on thread schedule. Exact while
// seen() <= capacity(): the sample then *is* the stream, in arrival order.
class Reservoir {
 public:
  // No up-front allocation: the sample grows with the stream (short streams
  // stay small; campaigns hold one reservoir per cell).
  explicit Reservoir(std::size_t capacity, std::uint64_t seed = 0)
      : capacity_(capacity), state_(seed + 0x9e3779b97f4a7c15ULL) {}

  void add(double x) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(x);
      return;
    }
    // j uniform in [0, seen); keep x iff j lands inside the reservoir. The
    // modulo bias is < 2^-53 for any realistic stream length.
    const std::uint64_t j = next_u64() % seen_;
    if (j < capacity_) samples_[static_cast<std::size_t>(j)] = x;
  }

  // Fold another reservoir's sample into this one, deterministically: the
  // samples are concatenated (and the seen counts summed); when the result
  // overflows the capacity it is thinned to evenly spaced elements. An
  // approximation of a true weighted merge — good enough for reporting
  // quantiles over a campaign group, and exact while both inputs are exact
  // and the union still fits.
  void merge(const Reservoir& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    seen_ += other.seen_;
    const std::size_t n = samples_.size();
    if (n <= capacity_ || capacity_ == 0) return;
    // Keep the elements at k*n/capacity, k = 0..capacity-1, in place: that
    // index is always >= k, so every survivor moves down. Step through the
    // indices by n/capacity, carrying the remainder.
    const std::size_t step = n / capacity_;
    const std::size_t rem = n % capacity_;
    std::size_t index = 0;
    std::size_t carry = 0;
    for (std::size_t k = 0; k < capacity_; ++k) {
      samples_[k] = samples_[index];
      index += step;
      carry += rem;
      if (carry >= capacity_) {
        carry -= capacity_;
        ++index;
      }
    }
    samples_.resize(capacity_);
  }

  // Allocate room for `n` samples up front (clamped to the capacity), for a
  // stream whose length is known before it is added.
  void reserve(std::size_t n) { samples_.reserve(std::min(n, capacity_)); }

  // Values observed so far (not the retained count).
  [[nodiscard]] std::size_t seen() const { return seen_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  // True while the sample still holds every observed value.
  [[nodiscard]] bool exact() const { return seen_ <= capacity_; }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<double> samples_;
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::uint64_t state_;
};

}  // namespace whisk::util
