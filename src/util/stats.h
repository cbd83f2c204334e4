// Statistics primitives used by the simulator and the benchmark harnesses:
// running accumulators, exponentially-weighted moving averages, and
// fixed-bucket histograms with percentile queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace drlnoc::util {

/// Running mean / variance / min / max with Welford's algorithm.
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);
  void reset();

  std::size_t count() const { return n_; }
  double sum() const { return mean_ * static_cast<double>(n_); }
  double mean() const;           ///< 0 when empty.
  double variance() const;       ///< population variance; 0 when n < 2.
  double stddev() const;
  double min() const;            ///< +inf when empty.
  double max() const;            ///< -inf when empty.

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially weighted moving average, alpha in (0, 1].
/// The first sample initialises the average directly.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.1);

  void add(double x);
  void reset();
  bool empty() const { return !initialized_; }
  /// Current average; `fallback` when no samples seen yet.
  double value(double fallback = 0.0) const;

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Histogram over [0, limit) with uniform buckets plus an overflow bucket.
/// Percentiles are linearly interpolated within buckets.
class Histogram {
 public:
  Histogram(double limit, std::size_t buckets);

  void add(double x);
  void reset();

  std::size_t count() const { return total_; }
  double mean() const;
  /// q in [0, 1]; returns 0 when empty. Overflow bucket reports `limit`.
  double percentile(double q) const;
  const std::vector<std::uint64_t>& buckets() const { return counts_; }
  std::uint64_t overflow() const { return overflow_; }

 private:
  double limit_;
  double bucket_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::size_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace drlnoc::util
