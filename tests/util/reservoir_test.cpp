#include "util/reservoir.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/stats.h"

namespace whisk::util {
namespace {

TEST(ReservoirTest, ExactWhileStreamFits) {
  Reservoir r(8);
  for (int i = 0; i < 8; ++i) r.add(static_cast<double>(i));
  EXPECT_TRUE(r.exact());
  EXPECT_EQ(r.seen(), 8u);
  EXPECT_EQ(r.size(), 8u);
  // Arrival order preserved: the sample *is* the stream.
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(r.samples()[static_cast<std::size_t>(i)],
                     static_cast<double>(i));
  }
}

TEST(ReservoirTest, BoundedBeyondCapacity) {
  Reservoir r(16);
  for (int i = 0; i < 10000; ++i) r.add(static_cast<double>(i));
  EXPECT_FALSE(r.exact());
  EXPECT_EQ(r.seen(), 10000u);
  EXPECT_EQ(r.size(), 16u);
}

TEST(ReservoirTest, DeterministicForAGivenSeed) {
  Reservoir a(32, 7);
  Reservoir b(32, 7);
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  EXPECT_EQ(a.samples(), b.samples());

  Reservoir c(32, 8);
  for (int i = 0; i < 5000; ++i) c.add(static_cast<double>(i));
  EXPECT_NE(a.samples(), c.samples()) << "different seeds, different sample";
}

TEST(ReservoirTest, SampleQuantilesTrackTheStream) {
  // A uniform 0..1 ramp: the sampled median must land near 0.5. The sample
  // is deterministic, so the tolerance cannot flake.
  Reservoir r(512);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    r.add(static_cast<double>(i) / static_cast<double>(n));
  }
  const double p50 = percentile(r.samples(), 50.0);
  EXPECT_NEAR(p50, 0.5, 0.1);
}

TEST(ReservoirTest, MergeOfExactReservoirsConcatenates) {
  Reservoir a(16);
  Reservoir b(16);
  for (int i = 0; i < 4; ++i) a.add(static_cast<double>(i));
  for (int i = 4; i < 8; ++i) b.add(static_cast<double>(i));
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.seen(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[static_cast<std::size_t>(i)],
                     static_cast<double>(i));
  }
}

TEST(ReservoirTest, MergeThinsToCapacity) {
  Reservoir a(8);
  Reservoir b(8);
  for (int i = 0; i < 8; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(100 + i));
  }
  a.merge(b);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a.seen(), 16u);
  EXPECT_FALSE(a.exact());
}

TEST(StreamingStatsMerge, MatchesOneBigAccumulator) {
  StreamingStats all;
  StreamingStats left;
  StreamingStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i * i % 37) - 11.0;
    all.add(x);
    (i < 40 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

// The merge as it was first written: concatenate, then copy the elements at
// k*n/capacity into a fresh vector. The in-place merge must match it.
void allocating_merge(std::vector<double>& samples, std::size_t capacity,
                      const std::vector<double>& other) {
  samples.insert(samples.end(), other.begin(), other.end());
  if (samples.size() > capacity && capacity > 0) {
    std::vector<double> thinned;
    thinned.reserve(capacity);
    const std::size_t n = samples.size();
    for (std::size_t k = 0; k < capacity; ++k) {
      thinned.push_back(samples[k * n / capacity]);
    }
    samples = std::move(thinned);
  }
}

TEST(ReservoirTest, InPlaceThinningMatchesTheAllocatingMerge) {
  std::uint64_t state = 12345;
  auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  double value = 0.0;
  for (std::size_t capacity = 1; capacity <= 70; ++capacity) {
    Reservoir merged(capacity);
    std::vector<double> reference;
    std::size_t seen = 0;
    for (int m = 0; m < 200; ++m) {
      // Up to four capacities per part: exact fits, both thinning paths
      // (n below and above twice the capacity), and empty parts.
      const std::size_t size = next(4 * capacity + 1);
      Reservoir part(size);
      for (std::size_t i = 0; i < size; ++i) part.add(value += 1.0);
      merged.merge(part);
      allocating_merge(reference, capacity, part.samples());
      seen += size;
      ASSERT_EQ(merged.samples(), reference)
          << "capacity " << capacity << ", merge " << m;
      ASSERT_EQ(merged.seen(), seen);
    }
  }
}

TEST(ReservoirTest, ReserveIsClampedToTheCapacity) {
  Reservoir small(8);
  small.reserve(1000);
  EXPECT_EQ(small.samples().capacity(), 8u);
  Reservoir large(4096);
  large.reserve(55);
  EXPECT_EQ(large.samples().capacity(), 55u);
  for (int i = 0; i < 55; ++i) large.add(static_cast<double>(i));
  EXPECT_EQ(large.samples().capacity(), 55u) << "no regrowth";
  EXPECT_TRUE(large.exact());
}

TEST(StreamingStatsMerge, EmptySidesAreIdentity) {
  StreamingStats empty;
  StreamingStats some;
  some.add(1.0);
  some.add(3.0);
  StreamingStats a = some;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  StreamingStats b = empty;
  b.merge(some);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
  EXPECT_DOUBLE_EQ(b.max(), 3.0);
}

}  // namespace
}  // namespace whisk::util
