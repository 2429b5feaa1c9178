#include "util/sorted_ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/random.h"

namespace whisk::util {
namespace {

TEST(SortedRingBuffer, OrderStatisticsTrackTheWindow) {
  SortedRingBuffer b(3);
  for (double v : {5.0, 1.0, 3.0}) b.push(v);
  EXPECT_EQ(b.nth(0), 1.0);
  EXPECT_EQ(b.nth(1), 3.0);
  EXPECT_EQ(b.nth(2), 5.0);
  b.push(2.0);  // evicts the 5
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.nth(0), 1.0);
  EXPECT_EQ(b.nth(1), 2.0);
  EXPECT_EQ(b.nth(2), 3.0);
}

TEST(SortedRingBuffer, EvictingADuplicateKeepsTheOtherCopies) {
  SortedRingBuffer b(3);
  for (double v : {2.0, 2.0, 1.0, 4.0}) b.push(v);  // evicts one 2
  EXPECT_EQ(b.nth(0), 1.0);
  EXPECT_EQ(b.nth(1), 2.0);
  EXPECT_EQ(b.nth(2), 4.0);
}

// The hedge delay's rank rule, floor(p * (n - 1)), over the kept-sorted
// window must give what nth_element over the ring gives: before and after
// the ring wraps, with many duplicate samples, at the quantiles a
// resilience section can ask for.
TEST(SortedRingBuffer, NthMatchesNthElementOverTheRing) {
  constexpr std::size_t kCapacity = 256;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::Rng rng(seed);
    SortedRingBuffer window(kCapacity);
    for (std::size_t i = 0; i < 4 * kCapacity; ++i) {
      // 16 distinct values: heavy duplication in a 256-sample window.
      window.push(0.125 * static_cast<double>(rng.uniform_index(16)));
      ASSERT_EQ(window.size(), std::min(i + 1, kCapacity));
      for (const double p : {0.0, 0.5, 0.95, 1.0}) {
        const auto k = static_cast<std::size_t>(
            p * static_cast<double>(window.size() - 1));
        std::vector<double> ring = window.values();
        std::nth_element(ring.begin(),
                         ring.begin() + static_cast<std::ptrdiff_t>(k),
                         ring.end());
        ASSERT_EQ(window.nth(k), ring[k])
            << "seed " << seed << ", push " << i << ", p " << p;
      }
    }
  }
}

TEST(SortedRingBufferDeath, NthOutOfRangeAborts) {
  SortedRingBuffer b(4);
  b.push(1.0);
  EXPECT_DEATH((void)b.nth(1), "out of range");
}

}  // namespace
}  // namespace whisk::util
