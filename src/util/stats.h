#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace whisk::util {

// Summary statistics over a sample, in the shape the paper reports:
// average, order statistics (50/75/95/99th percentile) and max.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double stddev = 0.0;
};

// Arithmetic mean; 0 for an empty sample.
[[nodiscard]] double mean(std::span<const double> xs);

// Sample standard deviation (n-1 denominator); 0 for n < 2.
[[nodiscard]] double stddev(std::span<const double> xs);

// Percentile with linear interpolation between closest ranks
// (the numpy default). `q` in [0, 100]. Selects on a copy.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

// Percentile over an already-sorted sample (no copy).
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

// The percentiles `qs` (ascending, each in [0, 100]) of `xs` into `out`,
// reordering `xs`. Bit-identical to percentile_sorted over a sorted copy:
// below kSelectFrom samples it sorts; from there it places only the order
// statistics the ranks need, with std::nth_element.
inline constexpr std::size_t kSelectFrom = 256;
void select_percentiles(std::span<double> xs, std::span<const double> qs,
                        std::span<double> out);

// A Summary's p25..p99 of `xs` through select_percentiles (reorders `xs`).
void fill_percentiles(std::span<double> xs, Summary& s);

// Full summary; selects all quantiles from one copy.
[[nodiscard]] Summary summarize(std::span<const double> xs);

// Welford-style streaming accumulator for mean/variance. Used where
// retaining every observation would be wasteful (e.g. ablation sweeps).
class StreamingStats {
 public:
  void add(double x);
  // Fold another accumulator in (Chan et al.'s pairwise combination):
  // merging in a fixed order is deterministic, which is how campaign groups
  // aggregate per-cell stats independently of the thread schedule.
  void merge(const StreamingStats& other);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // sample variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace whisk::util
