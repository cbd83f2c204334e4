// Fixed-slot metrics registry: counters, gauges, and histograms registered
// once up front, updated allocation-free on hot paths, and sampled into a
// time series by commit_sample(). The time series exports to JSON and — for
// multi-instance (per-router) metrics — a heatmap CSV with one row per
// sample and one column per instance. See docs/OBSERVABILITY.md for the
// metric catalogue.
//
// Semantics per kind:
//   * counter   — accumulates between samples; commit_sample() snapshots the
//                 window's total and resets it to zero (per-epoch deltas).
//   * gauge     — last-written value; persists across samples.
//   * histogram — cumulative over the whole run (bucket counts exported once
//                 with percentile summaries, not per sample).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/stats.h"

namespace drlnoc::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

class MetricsRegistry {
 public:
  using Id = int;

  /// Registration (startup only — allocates). `instances` > 1 makes an
  /// indexed family, e.g. one slot per router.
  Id add_counter(std::string name, int instances = 1);
  Id add_gauge(std::string name, int instances = 1);
  Id add_histogram(std::string name, double limit, std::size_t buckets);

  /// Hot-path updates: O(1), no allocation, no bounds surprises (instance
  /// indices are asserted in debug builds only — callers own the contract).
  void add_to_counter(Id id, int instance, double delta);
  void set_gauge(Id id, int instance, double value);
  void observe(Id id, double value);  ///< histogram sample

  /// Snapshots every counter/gauge into a new time-series row stamped with
  /// `time`, then resets the counters. Allocates (epoch boundary, not hot
  /// path).
  void commit_sample(double time);

  std::size_t samples() const { return times_.size(); }
  int instances(Id id) const;
  const std::string& name(Id id) const;
  /// Current (uncommitted) value of one counter/gauge instance.
  double value(Id id, int instance = 0) const;
  /// Committed value of one instance at one sample row.
  double sample_value(std::size_t row, Id id, int instance = 0) const;
  const util::Histogram& histogram(Id id) const;

  /// Full registry as JSON: {"samples", "times", "series": [...],
  /// "histograms": [...]}.
  void write_json(std::ostream& os) const;
  /// Heatmap CSV for one multi-instance metric: header `time,i0,i1,...`,
  /// one row per committed sample. Throws std::invalid_argument on an
  /// unknown metric name or a histogram.
  void write_heatmap_csv(std::ostream& os, const std::string& metric) const;

 private:
  struct Metric {
    std::string name;
    MetricKind kind{};
    int instances = 1;
    std::size_t offset = 0;  ///< into values_ (counter/gauge)
    std::size_t hist = 0;    ///< into histograms_ (histogram)
  };

  Id add_scalar(std::string name, MetricKind kind, int instances);

  std::vector<Metric> metrics_;
  std::vector<double> values_;  ///< flat current counter/gauge storage
  std::vector<util::Histogram> histograms_;
  std::vector<double> times_;           ///< one stamp per committed sample
  std::vector<std::vector<double>> rows_;  ///< one values_ copy per sample
};

}  // namespace drlnoc::obs
