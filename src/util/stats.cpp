#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace whisk::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

double percentile_sorted(std::span<const double> sorted, double q) {
  WHISK_CHECK(q >= 0.0 && q <= 100.0, "percentile rank out of range");
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void select_percentiles(std::span<double> xs, std::span<const double> qs,
                        std::span<double> out) {
  WHISK_CHECK(out.size() == qs.size(), "one output per percentile rank");
  for (std::size_t k = 0; k < qs.size(); ++k) {
    WHISK_CHECK(qs[k] >= 0.0 && qs[k] <= 100.0,
                "percentile rank out of range");
    WHISK_CHECK(k == 0 || qs[k - 1] <= qs[k], "percentile ranks must ascend");
  }
  const std::size_t n = xs.size();
  if (n < kSelectFrom) {
    std::sort(xs.begin(), xs.end());
    for (std::size_t k = 0; k < qs.size(); ++k) {
      out[k] = percentile_sorted(xs, qs[k]);
    }
    return;
  }
  // Invariant: xs[0, placed) holds the `placed` smallest values, and each
  // rank below `placed` that a quantile reads is at its sorted position.
  // percentile_sorted reads only ranks lo and hi, so once both are placed
  // it returns what it would over a fully sorted copy.
  double* const data = xs.data();
  std::size_t placed = 0;
  for (std::size_t k = 0; k < qs.size(); ++k) {
    // The ranks percentile_sorted reads.
    const auto lo = static_cast<std::size_t>(qs[k] / 100.0 *
                                             static_cast<double>(n - 1));
    const auto hi = std::min(lo + 1, n - 1);
    if (lo >= placed) {
      std::nth_element(data + placed, data + lo, data + n);
      placed = lo + 1;
    }
    if (hi >= placed) {  // hi == lo + 1: the smallest value above xs[lo]
      std::iter_swap(data + hi, std::min_element(data + hi, data + n));
      placed = hi + 1;
    }
    out[k] = percentile_sorted(xs, qs[k]);
  }
}

void fill_percentiles(std::span<double> xs, Summary& s) {
  static constexpr double kRanks[] = {25.0, 50.0, 75.0, 95.0, 99.0};
  double out[5];
  select_percentiles(xs, kRanks, out);
  s.p25 = out[0];
  s.p50 = out[1];
  s.p75 = out[2];
  s.p95 = out[3];
  s.p99 = out[4];
}

double percentile(std::span<const double> xs, double q) {
  std::vector<double> copy(xs.begin(), xs.end());
  double out = 0.0;
  select_percentiles(copy, {&q, 1}, {&out, 1});
  return out;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  const auto [min, max] = std::minmax_element(xs.begin(), xs.end());
  s.min = *min;
  s.max = *max;
  std::vector<double> copy(xs.begin(), xs.end());
  fill_percentiles(copy, s);
  return s;
}

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const std::size_t n = n_ + other.n_;
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n;
}

double StreamingStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

}  // namespace whisk::util
